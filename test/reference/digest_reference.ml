(* The Provenance-based session content digest, moved verbatim from
   lib/core/fingerprint.ml (with the mixing functions it reads): one
   FNV-1a term per source tuple of the index's database and one per view
   tuple of its witness map, summed mod 2^63. The digest the engine now
   reads off the arena's live rows must equal it on the same instance —
   it is the coordinate snapshot format v6 records. *)

open Deleprop

module R = Relational

(* FNV-1a over the native 63-bit int lane (boxed Int64 arithmetic
   allocates per mixed word — the planner hashes every clean shard every
   round, so the inner loop must not). The multiply wraps mod 2^63; the
   result widens to int64 only once, at the end. Every ingredient is
   length-prefixed or tagged, so concatenation ambiguities ("ab"+"c" vs
   "a"+"bc") cannot collide structurally — remaining collisions are the
   63-bit birthday bound, far below anything a bounded LRU will ever
   hold. *)
let fnv_basis = Int64.to_int 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3

let mix h x = (h lxor x) * fnv_prime

let mix_string h s =
  let h = ref (mix h (String.length s)) in
  String.iter (fun c -> h := mix !h (Char.code c)) s;
  !h

let mix_value h (v : R.Value.t) =
  match v with
  | R.Value.Int i -> mix (mix h 0) i
  | R.Value.Str s -> mix_string (mix h 1) s

let mix_tuple h (tp : R.Tuple.t) =
  let n = R.Tuple.arity tp in
  let h = ref (mix h n) in
  for i = 0 to n - 1 do
    h := mix_value !h (R.Tuple.get tp i)
  done;
  !h

let mix_float h f = mix h (Int64.to_int (Int64.bits_of_float f))

(* ---- the session content digest ----

   One term per source tuple plus one per view tuple, summed mod 2^63
   (native int addition wraps): order-independent, so a delta moves it
   by exactly the terms of the tuples it removes and adds. Witness
   members enter by content, never by slot or rank, so the digest is
   invariant under tombstoning, compaction and any physical layout. The
   leading tag keeps a source tuple's term apart from a view tuple's
   over the same relation name and values. *)

let mix_stuple h (st : R.Stuple.t) = mix_tuple (mix_string h st.R.Stuple.rel) st.R.Stuple.tuple
let stuple_term st = mix_stuple (mix fnv_basis 0) st

let vtuple_term weights (vt : Vtuple.t) witness =
  let h = mix_tuple (mix_string (mix fnv_basis 1) vt.Vtuple.query) vt.Vtuple.tuple in
  let h = mix (mix_float h (Weights.get weights vt)) (R.Stuple.Set.cardinal witness) in
  R.Stuple.Set.fold (fun st h -> mix_stuple h st) witness h

let digest (prov : Provenance.t) =
  let w = prov.Provenance.problem.Problem.weights in
  let h = R.Instance.fold (fun st h -> h + stuple_term st) prov.Provenance.problem.Problem.db 0 in
  Int64.of_int (Vtuple.Map.fold (fun vt ws h -> h + vtuple_term w vt ws) prov.Provenance.witness h)

(* the terms [sts] contribute to [digest prov]: their own, plus those of
   the view tuples whose witness they meet *)
let terms (prov : Provenance.t) sts =
  let w = prov.Provenance.problem.Problem.weights in
  let h = R.Stuple.Set.fold (fun st h -> h + stuple_term st) sts 0 in
  Vtuple.Set.fold
    (fun vt h -> h + vtuple_term w vt (Provenance.witness_of prov vt))
    (Provenance.kills prov sts) h

let digest_delta d ~before ~dd ~after ~ins =
  Int64.of_int (Int64.to_int d - terms before dd + terms after ins)

