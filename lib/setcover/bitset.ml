(* Packed bitsets: [Sys.int_size] bits per word (63 on 64-bit systems).
   The last word is kept masked so whole-word operations (cardinal, equal,
   full) need no per-call boundary handling. *)

type t = { len : int; words : int array }

let bits = Sys.int_size

let nwords len = (len + bits - 1) / bits

let create len =
  if len < 0 then invalid_arg "Bitset.create: negative length";
  { len; words = Array.make (nwords len) 0 }

(* bits of the last word that lie inside the universe *)
let last_mask len =
  let r = len mod bits in
  if r = 0 then -1 else (1 lsl r) - 1

let full len =
  let t = create len in
  let n = Array.length t.words in
  if n > 0 then begin
    Array.fill t.words 0 n (-1);
    t.words.(n - 1) <- last_mask len
  end;
  t

let length t = t.len
let copy t = { t with words = Array.copy t.words }

let check t i =
  if i < 0 || i >= t.len then
    invalid_arg (Printf.sprintf "Bitset: index %d out of range [0..%d)" i t.len)

let mem t i =
  check t i;
  t.words.(i / bits) land (1 lsl (i mod bits)) <> 0

let add t i =
  check t i;
  t.words.(i / bits) <- t.words.(i / bits) lor (1 lsl (i mod bits))

let remove t i =
  check t i;
  t.words.(i / bits) <- t.words.(i / bits) land lnot (1 lsl (i mod bits))

(* popcount of a 63-bit word via two 32-bit SWAR halves (64-bit literals
   would overflow OCaml's 63-bit ints) *)
let pop32 x =
  let x = x - ((x lsr 1) land 0x55555555) in
  let x = (x land 0x33333333) + ((x lsr 2) land 0x33333333) in
  let x = (x + (x lsr 4)) land 0x0F0F0F0F in
  (* mask before shifting: OCaml ints don't truncate the multiply to 32
     bits the way C's uint32 arithmetic does *)
  ((x * 0x01010101) land 0xFFFFFFFF) lsr 24

let popcount x = pop32 (x land 0xFFFFFFFF) + pop32 ((x lsr 32) land 0x7FFFFFFF)

let cardinal t = Array.fold_left (fun acc w -> acc + popcount w) 0 t.words

let is_empty t = Array.for_all (fun w -> w = 0) t.words

let same_universe op a b =
  if a.len <> b.len then
    invalid_arg (Printf.sprintf "Bitset.%s: universes differ (%d vs %d)" op a.len b.len)

let equal a b =
  same_universe "equal" a b;
  a.words = b.words

let subset a b =
  same_universe "subset" a b;
  let ok = ref true in
  for k = 0 to Array.length a.words - 1 do
    if a.words.(k) land lnot b.words.(k) <> 0 then ok := false
  done;
  !ok

let disjoint a b =
  same_universe "disjoint" a b;
  let ok = ref true in
  for k = 0 to Array.length a.words - 1 do
    if a.words.(k) land b.words.(k) <> 0 then ok := false
  done;
  !ok

let union_into ~into a =
  same_universe "union_into" into a;
  for k = 0 to Array.length into.words - 1 do
    into.words.(k) <- into.words.(k) lor a.words.(k)
  done

let inter_into ~into a =
  same_universe "inter_into" into a;
  for k = 0 to Array.length into.words - 1 do
    into.words.(k) <- into.words.(k) land a.words.(k)
  done

let diff_into ~into a =
  same_universe "diff_into" into a;
  for k = 0 to Array.length into.words - 1 do
    into.words.(k) <- into.words.(k) land lnot a.words.(k)
  done

let union a b = let t = copy a in union_into ~into:t b; t
let inter a b = let t = copy a in inter_into ~into:t b; t
let diff a b = let t = copy a in diff_into ~into:t b; t

let inter_cardinal a b =
  same_universe "inter_cardinal" a b;
  let c = ref 0 in
  for k = 0 to Array.length a.words - 1 do
    c := !c + popcount (a.words.(k) land b.words.(k))
  done;
  !c

let diff_cardinal a b =
  same_universe "diff_cardinal" a b;
  let c = ref 0 in
  for k = 0 to Array.length a.words - 1 do
    c := !c + popcount (a.words.(k) land lnot b.words.(k))
  done;
  !c

(* iterate the set bits of word [w] (ascending) as absolute indexes *)
let iter_word f base w =
  let w = ref w in
  while !w <> 0 do
    let b = !w land - !w in
    f (base + popcount (b - 1));
    w := !w lxor b
  done

let iter f t =
  Array.iteri (fun k w -> iter_word f (k * bits) w) t.words

let iter_diff f a b =
  same_universe "iter_diff" a b;
  for k = 0 to Array.length a.words - 1 do
    iter_word f (k * bits) (a.words.(k) land lnot b.words.(k))
  done

(* Σ w.(i) over the set bits of [a]'s words, [b]'s folded in by [op]
   (0: a alone, 1: a ∧ b, 2: a ∧ ¬b), added in ascending order from 0.0:
   a loop with no closure, so the accumulator stays an unboxed float *)
let sum_words op (w : float array) a b =
  let acc = ref 0.0 in
  for k = 0 to Array.length a.words - 1 do
    let x =
      ref
        (match op with
         | 0 -> a.words.(k)
         | 1 -> a.words.(k) land b.words.(k)
         | _ -> a.words.(k) land lnot b.words.(k))
    in
    let base = k * bits in
    while !x <> 0 do
      let bit = !x land - !x in
      acc := !acc +. w.(base + popcount (bit - 1));
      x := !x lxor bit
    done
  done;
  !acc

let sum w a = sum_words 0 w a a

let sum_inter w a b =
  same_universe "sum_inter" a b;
  sum_words 1 w a b

let sum_diff w a b =
  same_universe "sum_diff" a b;
  sum_words 2 w a b

let fold f t init =
  let acc = ref init in
  iter (fun i -> acc := f i !acc) t;
  !acc

let elements t = List.rev (fold (fun i acc -> i :: acc) t [])

let of_list ~len l =
  let t = create len in
  List.iter (add t) l;
  t

let pp ppf t =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
       Format.pp_print_int)
    (elements t)
