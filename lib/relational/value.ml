type t =
  | Int of int
  | Str of string

let compare a b =
  match a, b with
  | Int x, Int y -> Int.compare x y
  | Str x, Str y -> String.compare x y
  | Int _, Str _ -> -1
  | Str _, Int _ -> 1

let equal a b = compare a b = 0

(* the payload's hash with the tag mixed in by arithmetic: hashing the
   pair [(tag, payload)] would allocate the pair on every call, and a
   tuple table's every lookup hashes each field. The tag goes in by
   xor with a constant, not into the low bit: a [Hashtbl.Make] table
   picks its bucket from the low bits, and an [Int] field's constant
   low bit would leave half the buckets of a tuple table empty. *)
let hash = function
  | Int x -> Hashtbl.hash x
  | Str s -> Hashtbl.hash s lxor 0x2545f491

let int x = Int x
let str s = Str s

let fresh_counter = ref 0

let fresh () =
  incr fresh_counter;
  Str (Printf.sprintf "$%d" !fresh_counter)

let reset_fresh () = fresh_counter := 0

let to_string = function
  | Int x -> Int.to_string x
  | Str s -> s

let pp ppf v = Format.pp_print_string ppf (to_string v)

let is_int_literal s =
  s <> ""
  && (let body = if s.[0] = '-' && String.length s > 1 then String.sub s 1 (String.length s - 1) else s in
      body <> "" && String.for_all (fun c -> c >= '0' && c <= '9') body)

let of_string s =
  let s = String.trim s in
  if is_int_literal s then Int (int_of_string s)
  else if String.length s >= 2 && s.[0] = '\'' && s.[String.length s - 1] = '\'' then
    Str (String.sub s 1 (String.length s - 2))
  else Str s
