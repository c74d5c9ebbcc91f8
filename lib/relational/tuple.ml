type t = Value.t array

let make a = Array.copy a
let init = Array.init
let of_list vs = Array.of_list vs
let ints xs = of_list (List.map Value.int xs)
let strs xs = of_list (List.map Value.str xs)

let arity = Array.length
let get t i = t.(i)
let to_list = Array.to_list
let to_array = Array.copy

let project t positions =
  let n = Array.length t in
  let pick i =
    if i < 0 || i >= n then invalid_arg "Tuple.project: position out of range"
    else t.(i)
  in
  Array.of_list (List.map pick positions)

(* a top-level loop, not a local closure over [a] and [b]: without
   flambda a local one is allocated on every call, and every Set/Map
   operation on tuples, source tuples and view tuples compares *)
let rec compare_from a b i n =
  if i = n then 0
  else
    let c = Value.compare a.(i) b.(i) in
    if c <> 0 then c else compare_from a b (i + 1) n

let compare a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Int.compare la lb else compare_from a b 0 la

let equal a b = compare a b = 0

let hash t = Array.fold_left (fun acc v -> (acc * 31) + Value.hash v) 17 t

let pp ppf t =
  Format.fprintf ppf "(%a)"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ") Value.pp)
    (to_list t)

let to_string t = Format.asprintf "%a" pp t

module Ord = struct
  type nonrec t = t
  let compare = compare
end

module Set = Set.Make (Ord)
module Map = Map.Make (Ord)
