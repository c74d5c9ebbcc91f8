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

(* a loop, not [String.iter]: without flambda the closure and the ref
   it captures are allocated per string *)
let mix_string h s =
  let h = ref (mix h (String.length s)) in
  for i = 0 to String.length s - 1 do
    h := mix !h (Char.code (String.unsafe_get s i))
  done;
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
   arena — no shard arena built. The shard arena's
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
   over the same relation name and values. Everything is read off the
   arena's live rows: a witness row ascends in sid order, which is
   Stuple.compare order, and a view tuple's weight is the one its slot
   was compiled with. *)

let mix_stuple h (st : R.Stuple.t) = mix_tuple (mix_string h st.R.Stuple.rel) st.R.Stuple.tuple
let stuple_term st = mix_stuple (mix fnv_basis 0) st

let vtuple_term (a : Arena.t) vid =
  let vt = a.Arena.vtuples.(vid) and row = a.Arena.witness.(vid) in
  let h = mix_tuple (mix_string (mix fnv_basis 1) vt.Vtuple.query) vt.Vtuple.tuple in
  let h = ref (mix (mix_float h a.Arena.weights.(vid)) (Array.length row)) in
  for i = 0 to Array.length row - 1 do
    h := mix_stuple !h a.Arena.stuples.(row.(i))
  done;
  !h

let digest (a : Arena.t) =
  let h = ref 0 in
  for sid = 0 to Arena.num_stuples a - 1 do
    if not (Setcover.Bitset.mem a.Arena.dead_s sid) then h := !h + stuple_term a.Arena.stuples.(sid)
  done;
  for vid = 0 to Arena.num_vtuples a - 1 do
    if not (Setcover.Bitset.mem a.Arena.dead_v vid) then h := !h + vtuple_term a vid
  done;
  Int64.of_int !h

(* the terms [sts] (live tuples of [a]) contribute to [digest a]: their
   own, plus those of the live view tuples whose witness they meet, each
   once *)
let terms (a : Arena.t) sts =
  let live = Fun.negate (Setcover.Bitset.mem a.Arena.dead_v) in
  let vids =
    R.Stuple.Set.fold
      (fun st acc ->
        Array.fold_left
          (fun acc vid -> if live vid then vid :: acc else acc)
          acc a.Arena.containing.(Arena.stuple_id a st))
      sts []
  in
  let h = R.Stuple.Set.fold (fun st h -> h + stuple_term st) sts 0 in
  List.fold_left (fun h vid -> h + vtuple_term a vid) h (List.sort_uniq Int.compare vids)

let digest_delta d ~before ~dd ~after ~ins =
  Int64.of_int (Int64.to_int d - terms before dd + terms after ins)

(* The rows file's key: the tuples, then each query term by term —
   its text would print the constants [1] and ['1'] alike — counts and
   tags first *)
let mix_term h = function
  | Cq.Term.Var x -> mix_string (mix h 0) x
  | Cq.Term.Const v -> mix_value (mix h 1) v

let mix_terms h ts = List.fold_left mix_term (mix h (List.length ts)) ts

let mix_query h (q : Cq.Query.t) =
  List.fold_left
    (fun h (a : Cq.Atom.t) -> mix_terms (mix_string h a.Cq.Atom.rel) (Array.to_list a.Cq.Atom.args))
    (mix (mix_terms (mix_string h q.Cq.Query.name) q.Cq.Query.head) (List.length q.Cq.Query.body))
    q.Cq.Query.body

let content_key stuples queries =
  let h = Array.fold_left mix_stuple (mix fnv_basis (Array.length stuples)) stuples in
  Int64.of_int (List.fold_left mix_query (mix h (List.length queries)) queries)

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
