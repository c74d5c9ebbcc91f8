module R = Relational

type t = int64

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

(* Live slots only, witness sids hashed by their rank among live sids —
   so the hash is invariant under compaction (tombstoned arena ≡ its
   compacted form) and, on an arena with no tombstones, bit-identical to
   the naive whole-array stream (rank = sid there). *)
let arena (a : Arena.t) =
  let ns_phys = Arena.num_stuples a and nv_phys = Arena.num_vtuples a in
  let h = ref (mix (mix fnv_basis (Arena.live_stuples a)) (Arena.live_vtuples a)) in
  let rank = Array.make (max 1 ns_phys) (-1) in
  let k = ref 0 in
  for sid = 0 to ns_phys - 1 do
    if not (Setcover.Bitset.mem a.Arena.dead_s sid) then begin
      rank.(sid) <- !k;
      incr k;
      let st = a.Arena.stuples.(sid) in
      h := mix_tuple (mix_string !h st.R.Stuple.rel) st.R.Stuple.tuple
    end
  done;
  for vid = 0 to nv_phys - 1 do
    if not (Setcover.Bitset.mem a.Arena.dead_v vid) then begin
      let vt = a.Arena.vtuples.(vid) in
      h := mix_tuple (mix_string !h vt.Vtuple.query) vt.Vtuple.tuple;
      h := mix_float !h a.Arena.weights.(vid);
      h := mix !h (if Setcover.Bitset.mem a.Arena.bad vid then 1 else 0);
      (* the witness row pins the incidence structure, so instances that
         happen to share tuple content but join differently stay apart *)
      let row = a.Arena.witness.(vid) in
      h := mix !h (Array.length row);
      Array.iter (fun sid -> h := mix !h rank.(sid)) row
    end
  done;
  Int64.of_int !h

(* The same hash, computed for one component straight off the parent
   arena — no [Provenance.restrict], no [Arena.build]. The shard arena's
   position [k] is the parent id [p_sids.(k)] / [p_vids.(k)] (ascending
   on both sides, see [Arena.materialize]), so every shard-local
   ingredient is recoverable: tuples and weights read through the id
   lists, and a witness row's shard-local sids are the parent sids'
   ranks within [p_sids]. Tombstone-invariant by the same argument:
   proto-shards enumerate live member ids only ([Component_index.active]
   rosters skip dead slots) and a live vid's witness references live sids, so
   the hash over a tombstoned parent equals the hash over its compacted
   form — dead slots never feed a byte into the stream. *)
let shard ?bad (a : Arena.t) (ps : Arena.proto_shard) =
  (* [?bad] overrides the parent's ΔV bitset — the split-reuse path
     hashes a fragment under the memoized request, not the current one *)
  let bad = match bad with Some b -> b | None -> a.Arena.bad in
  let sids = ps.Arena.p_sids and vids = ps.Arena.p_vids in
  let ns = Array.length sids and nv = Array.length vids in
  let h = ref (mix (mix fnv_basis ns) nv) in
  Array.iter
    (fun gsid ->
      let st = a.Arena.stuples.(gsid) in
      h := mix_tuple (mix_string !h st.R.Stuple.rel) st.R.Stuple.tuple)
    sids;
  let rank gsid =
    let lo = ref 0 and hi = ref (ns - 1) and r = ref (-1) in
    while !r < 0 do
      let mid = (!lo + !hi) / 2 in
      if sids.(mid) = gsid then r := mid
      else if sids.(mid) < gsid then lo := mid + 1
      else hi := mid - 1
    done;
    !r
  in
  Array.iter
    (fun gvid ->
      let vt = a.Arena.vtuples.(gvid) in
      h := mix_tuple (mix_string !h vt.Vtuple.query) vt.Vtuple.tuple;
      h := mix_float !h a.Arena.weights.(gvid);
      h := mix !h (if Setcover.Bitset.mem bad gvid then 1 else 0);
      let row = a.Arena.witness.(gvid) in
      h := mix !h (Array.length row);
      Array.iter (fun gsid -> h := mix !h (rank gsid)) row)
    vids;
  Int64.of_int !h

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

let equal = Int64.equal
let compare = Int64.compare
let to_hex fp = Printf.sprintf "%016Lx" fp

(* inverse of [to_hex]: exactly 16 hex digits (Int64.of_string on a 0x
   literal accepts the full unsigned range, wrapping into the sign bit) *)
let of_hex s =
  if String.length s <> 16 then None
  else
    match Int64.of_string_opt ("0x" ^ s) with
    | Some fp when to_hex fp = String.lowercase_ascii s -> Some fp
    | _ -> None

let pp ppf fp = Format.pp_print_string ppf (to_hex fp)
