type t = { rel : string; tuple : Tuple.t }

let make rel tuple = { rel; tuple }

let compare a b =
  let c = String.compare a.rel b.rel in
  if c <> 0 then c else Tuple.compare a.tuple b.tuple

let equal a b = compare a b = 0

let hash t = (Tuple.hash t.tuple * 31) + Hashtbl.hash t.rel

let pp ppf t = Format.fprintf ppf "%s%a" t.rel Tuple.pp t.tuple
let to_string t = Format.asprintf "%a" pp t

module Ord = struct
  type nonrec t = t
  let compare = compare
end

module Set = Set.Make (Ord)
module Map = Map.Make (Ord)

module Tbl = Hashtbl.Make (struct
  type nonrec t = t
  let equal = equal
  let hash = hash
end)
