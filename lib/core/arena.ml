module R = Relational
module Bitset = Setcover.Bitset

type t = {
  prov : Provenance.t;
  stuples : R.Stuple.t array;
  vtuples : Vtuple.t array;
  witness : int array array;
  containing : int array array;
  bad : Bitset.t;
  preserved : Bitset.t;
  weights : float array;
  bad_order : int array;
  forest_case : bool;
  dead_s : Bitset.t;
  dead_v : Bitset.t;
  depths : int array option;
}

(* Per-sid rel-tree depth, memoized per physical layout: [stuples] is
   sorted rel-first, so equal relations form contiguous runs and one
   tree lookup per run suffices. A relation outside the tree appears in
   no query body, hence in no witness — max_int is inert. [None] when
   the query set admits no tree order (the non-forest case). The array
   depends only on (queries, stuples), so every re-stamp and tombstone
   of the same layout shares it — this is what keeps [with_deletions]
   off the O(‖D‖) path. *)
let compute_depths (queries : Cq.Query.t list) (stuples : R.Stuple.t array) =
  match Hypergraph.Rel_tree.of_queries queries with
  | None -> None
  | Some tree ->
    let depth = Array.make (Array.length stuples) max_int in
    let run_rel = ref "" and run_depth = ref max_int in
    Array.iteri
      (fun sid (st : R.Stuple.t) ->
        if sid = 0 || not (String.equal st.R.Stuple.rel !run_rel) then begin
          run_rel := st.R.Stuple.rel;
          run_depth :=
            (match Hypergraph.Rel_tree.depth tree st.R.Stuple.rel with
             | d -> d
             | exception Not_found -> max_int)
        end;
        depth.(sid) <- !run_depth)
      stuples;
    Some depth

let processing_order ~depths ~witness ~bad =
  (* the order [Primal_dual.processing_order] computes, on ids: bad vids
     by decreasing lca depth (forest case) or decreasing witness size,
     ties by ascending vid (= ascending Vtuple.compare) *)
  let bad_ids = Bitset.elements bad in
  match depths with
  | Some depth ->
    let lca_depth vid =
      Array.fold_left (fun acc sid -> min acc depth.(sid)) max_int witness.(vid)
    in
    let keyed = List.map (fun vid -> (lca_depth vid, vid)) bad_ids in
    ( true,
      List.sort
        (fun (da, a) (db, b) -> if da <> db then Int.compare db da else Int.compare a b)
        keyed
      |> List.map snd )
  | None ->
    let size vid = Array.length witness.(vid) in
    let keyed = List.map (fun vid -> (size vid, vid)) bad_ids in
    ( false,
      List.sort
        (fun (sa, a) (sb, b) -> if sa <> sb then Int.compare sb sa else Int.compare a b)
        keyed
      |> List.map snd )

(* The tail every physical layout shares ([build], [of_problem],
   [compact] and the merge path of [extend]): a tombstone-free record
   over fresh rows.
   [containing] inverts [witness] rather than re-interning every
   containing set: filling in ascending vid keeps each row in
   Vtuple.compare order. *)
let assemble (prov : Provenance.t) ~stuples ~vtuples ~witness ~weights ~bad =
  let ns = Array.length stuples and nv = Array.length vtuples in
  let deg = Array.make ns 0 in
  Array.iter (Array.iter (fun sid -> deg.(sid) <- deg.(sid) + 1)) witness;
  let containing = Array.init ns (fun sid -> Array.make deg.(sid) 0) in
  let fill = Array.make ns 0 in
  Array.iteri
    (fun vid w ->
      Array.iter
        (fun sid ->
          containing.(sid).(fill.(sid)) <- vid;
          fill.(sid) <- fill.(sid) + 1)
        w)
    witness;
  let depths = compute_depths prov.Provenance.problem.Problem.queries stuples in
  let forest_case, order = processing_order ~depths ~witness ~bad in
  {
    prov;
    stuples;
    vtuples;
    witness;
    containing;
    bad;
    preserved = Bitset.diff (Bitset.full nv) bad;
    weights;
    bad_order = Array.of_list order;
    forest_case;
    dead_s = Bitset.create ns;
    dead_v = Bitset.create nv;
    depths;
  }

(* A fresh interning compiled: weights by vid, the bad bitset by one
   merge walk ([bad] and [vtuples] both ascend in Vtuple.compare order;
   a bad view tuple outside [vtuples] has no witness, and the walk stops
   on it), then [assemble]. Ids in Stuple.compare / Vtuple.compare
   order make ascending-id iteration replay exactly the Set.fold order
   of the set-based solvers (bit-identical float accumulation). *)
let compile ~caller (prov : Provenance.t) (ids : Provenance.interning) =
  let vtuples = ids.Provenance.sorted_vtuples in
  let nv = Array.length vtuples in
  let wtbl = prov.Provenance.problem.Problem.weights in
  let weights = Array.map (Weights.get wtbl) vtuples in
  let bad = Bitset.create nv in
  let vid = ref 0 in
  Vtuple.Set.iter
    (fun b ->
      while !vid < nv && Vtuple.compare vtuples.(!vid) b < 0 do
        incr vid
      done;
      if !vid < nv && Vtuple.equal vtuples.(!vid) b then Bitset.add bad !vid
      else
        invalid_arg
          (Format.asprintf "%s: bad view tuple %a has no witness" caller Vtuple.pp b))
    prov.Provenance.bad;
  assemble prov ~stuples:ids.Provenance.sorted_stuples ~vtuples
    ~witness:ids.Provenance.witness_rows ~weights ~bad

let build prov = compile ~caller:"Arena.build" prov (Provenance.interning prov)

let of_problem problem =
  let prov, ids = Provenance.build_interned problem in
  compile ~caller:"Arena.of_problem" prov ids

let num_stuples t = Array.length t.stuples
let num_vtuples t = Array.length t.vtuples
let live_stuples t = num_stuples t - Bitset.cardinal t.dead_s
let live_vtuples t = num_vtuples t - Bitset.cardinal t.dead_v
let tombstoned t = not (Bitset.is_empty t.dead_s && Bitset.is_empty t.dead_v)

let tombstone_ratio t =
  let total = num_stuples t + num_vtuples t in
  if total = 0 then 0.0
  else
    float_of_int (Bitset.cardinal t.dead_s + Bitset.cardinal t.dead_v)
    /. float_of_int total

(* Id lookups: binary search over the sorted arrays. The hashtables used
   during [build] are not retained — the arena is immutable and shared
   across domains, and bisection over the sorted id order is collision-
   free and allocation-free. *)

let bisect ~compare arr x =
  let lo = ref 0 and hi = ref (Array.length arr) in
  while !hi - !lo > 1 do
    let mid = (!lo + !hi) / 2 in
    if compare arr.(mid) x <= 0 then lo := mid else hi := mid
  done;
  if Array.length arr > 0 && compare arr.(!lo) x = 0 then Some !lo else None

let stuple_id t st =
  match bisect ~compare:R.Stuple.compare t.stuples st with
  | Some sid -> sid
  | None ->
    invalid_arg (Format.asprintf "Arena.stuple_id: unknown %a" R.Stuple.pp st)

let vtuple_id t vt =
  match bisect ~compare:Vtuple.compare t.vtuples vt with
  | Some vid -> vid
  | None -> invalid_arg (Format.asprintf "Arena.vtuple_id: unknown %a" Vtuple.pp vt)

let find_live_sid t st =
  match bisect ~compare:R.Stuple.compare t.stuples st with
  | Some sid when not (Bitset.mem t.dead_s sid) -> Some sid
  | _ -> None

let to_stuple_set t sids =
  List.fold_left (fun acc sid -> R.Stuple.Set.add t.stuples.(sid) acc)
    R.Stuple.Set.empty sids

(* ---- incremental maintenance ----

   Mirrors the ΔV-independent / ΔV-dependent split of the provenance
   index, with one extra axis: committed deletions are *tombstones*.
   [delete] marks slots dead; the physical arrays (and so every id)
   stay put, and only [compact] rewrites them. Ids are assigned in
   sorted-tuple order and tombstones never move a slot, so gathering the
   live slots order-preservingly ([compact]) lands every survivor
   exactly where a fresh [build] of the patched provenance would put
   it — the differential property suite checks both paths field by
   field. *)

(* The ΔV stamp both re-targets share: preserved is live ∧ ¬bad, and the
   processing order re-sorts only the bad ids over the memoized per-sid
   depths — bitset words and bad rows, no O(‖D‖) sweep. *)
let stamp (a : t) prov bad =
  let preserved = Bitset.full (num_vtuples a) in
  Bitset.diff_into ~into:preserved bad;
  Bitset.diff_into ~into:preserved a.dead_v;
  let forest_case, order = processing_order ~depths:a.depths ~witness:a.witness ~bad in
  { a with prov; bad; preserved; bad_order = Array.of_list order; forest_case }

let with_deletions (a : t) (prov : Provenance.t) =
  let bad = Bitset.create (num_vtuples a) in
  Vtuple.Set.iter (fun vt -> Bitset.add bad (vtuple_id a vt)) prov.Provenance.bad;
  stamp a prov bad

(* One pass over the requests in order: an unknown view or a tuple that
   is not a live view answer stops it with the error
   [Delta_request.validate] reports first (a live vid is exactly a
   current answer of the index [a.prov]). *)
let with_requests (a : t) (reqs : Delta_request.t list) =
  let views = a.prov.Provenance.views in
  let bad = Bitset.create (num_vtuples a) in
  let rec go = function
    | [] -> Ok (stamp a a.prov bad)
    | (r : Delta_request.t) :: tl ->
      let view = r.Delta_request.view in
      if not (Smap.mem view views) then
        Error
          (Delta_request.Unknown_view
             { view; known = List.map fst (Smap.bindings views) })
      else
        let rec intern = function
          | [] -> go tl
          | tuple :: ts -> (
            match bisect ~compare:Vtuple.compare a.vtuples (Vtuple.make view tuple) with
            | Some vid when not (Bitset.mem a.dead_v vid) ->
              Bitset.add bad vid;
              intern ts
            | _ -> Error (Delta_request.Not_in_view { view; tuple }))
        in
        intern r.Delta_request.tuples
  in
  go reqs

(* the bitsets' ΔV as requests, one per query in ascending vid order *)
let requests_of_bad (a : t) =
  Bitset.fold
    (fun vid acc ->
      let vt = a.vtuples.(vid) in
      match acc with
      | (view, ts) :: tl when String.equal view vt.Vtuple.query ->
        (view, vt.Vtuple.tuple :: ts) :: tl
      | _ -> (vt.Vtuple.query, [ vt.Vtuple.tuple ]) :: acc)
    a.bad []
  |> List.rev_map (fun (view, ts) -> Delta_request.make ~view (List.rev ts))

let consistent (a : t) =
  if Bitset.is_empty a.bad && Vtuple.Set.is_empty a.prov.Provenance.bad then a
  else { a with prov = Provenance.with_deletions a.prov (requests_of_bad a) }

let delete (a : t) ~dd (prov : Provenance.t) =
  (* tombstone the deleted sids and every view tuple whose witness meets
     [dd]; no id moves, so every array is shared and the cost is
     O(‖dd‖ + Σ|containing(dd)|) plus a few bitset words. The stamps
     stay exact: removing elements from [bad] preserves the processing
     order of the survivors (their sort keys are untouched), so
     [bad_order] filters instead of re-sorting. *)
  let dead_s = Bitset.copy a.dead_s and dead_v = Bitset.copy a.dead_v in
  R.Stuple.Set.iter
    (fun st ->
      let sid = stuple_id a st in
      Bitset.add dead_s sid;
      Array.iter (Bitset.add dead_v) a.containing.(sid))
    dd;
  let bad = Bitset.diff a.bad dead_v in
  let preserved = Bitset.diff a.preserved dead_v in
  let bad_order =
    if Bitset.equal bad a.bad then a.bad_order
    else
      Array.of_list
        (List.filter
           (fun vid -> not (Bitset.mem dead_v vid))
           (Array.to_list a.bad_order))
  in
  { a with prov; bad; preserved; bad_order; dead_s; dead_v }

let compact (a : t) =
  if not (tombstoned a) then a
  else begin
    let ns = num_stuples a and nv = num_vtuples a in
    let smap = Array.make ns (-1) in
    let k = ref 0 in
    for sid = 0 to ns - 1 do
      if not (Bitset.mem a.dead_s sid) then begin
        smap.(sid) <- !k;
        incr k
      end
    done;
    let ns' = !k in
    let vmap = Array.make nv (-1) in
    let k = ref 0 in
    for vid = 0 to nv - 1 do
      if not (Bitset.mem a.dead_v vid) then begin
        vmap.(vid) <- !k;
        incr k
      end
    done;
    let nv' = !k in
    let stuples = Array.make ns' (R.Stuple.make "" (R.Tuple.of_list [])) in
    for sid = 0 to ns - 1 do
      if smap.(sid) >= 0 then stuples.(smap.(sid)) <- a.stuples.(sid)
    done;
    let vtuples = Array.make nv' (Vtuple.make "" (R.Tuple.of_list [])) in
    let witness = Array.make nv' [||] in
    let weights = Array.make nv' 0.0 in
    let bad = Bitset.create nv' in
    for vid = 0 to nv - 1 do
      let nvid = vmap.(vid) in
      if nvid >= 0 then begin
        vtuples.(nvid) <- a.vtuples.(vid);
        (* a live view tuple's witness contains no dead sid, so the
           remap below never hits a dead id *)
        witness.(nvid) <- Array.map (fun sid -> smap.(sid)) a.witness.(vid);
        weights.(nvid) <- a.weights.(vid);
        if Bitset.mem a.bad vid then Bitset.add bad nvid
      end
    done;
    assemble a.prov ~stuples ~vtuples ~witness ~weights ~bad
  end

(* ---- resurrection fast path for [extend] ----

   A delete/re-insert workload re-creates tuples whose slots still sit
   dead in the arrays. If every inserted tuple bisects to a dead stuple
   slot, and every view answer it re-creates bisects to a dead vtuple
   slot whose stored witness row and weight match the new provenance
   exactly, then flipping those dead bits back *is* the extended arena —
   no sorted-run merge, no id movement, O(‖ins‖·log + Σ|containing(ins)|).
   Completeness: a gained view tuple's witness contains an inserted
   tuple (it is a delta answer), so enumerating [vtuples_containing] of
   each insert visits every gained answer. Any mismatch — a genuinely
   new tuple, an answer re-derived through a different witness, a row
   referencing a still-dead slot — falls back to compact-and-merge. *)
let try_resurrect (a : t) ~ins (prov' : Provenance.t) =
  let exception Fallback in
  try
    let dead_s = Bitset.copy a.dead_s and dead_v = Bitset.copy a.dead_v in
    R.Stuple.Set.iter
      (fun st ->
        match bisect ~compare:R.Stuple.compare a.stuples st with
        | Some sid when Bitset.mem dead_s sid -> Bitset.remove dead_s sid
        | _ -> raise Fallback)
      ins;
    let resurrected = ref [] in
    let wtbl = prov'.Provenance.problem.Problem.weights in
    R.Stuple.Set.iter
      (fun st ->
        Vtuple.Set.iter
          (fun vt ->
            match bisect ~compare:Vtuple.compare a.vtuples vt with
            | None -> raise Fallback
            | Some vid ->
              if Bitset.mem dead_v vid then begin
                (* the dead slot must reproduce the new derivation
                   bit-exactly: same witness row, same weight *)
                let row = to_stuple_set a (Array.to_list a.witness.(vid)) in
                if
                  (not (R.Stuple.Set.equal row (Provenance.witness_of prov' vt)))
                  || not (Float.equal a.weights.(vid) (Weights.get wtbl vt))
                then raise Fallback;
                Array.iter
                  (fun sid -> if Bitset.mem dead_s sid then raise Fallback)
                  a.witness.(vid);
                Bitset.remove dead_v vid;
                resurrected := vid :: !resurrected
              end
              else if not (Bitset.mem a.dead_v vid) then
                (* a live view tuple cannot contain a dead source tuple *)
                raise Fallback)
          (Provenance.vtuples_containing prov' st))
      ins;
    (* resurrected answers are live ∧ ¬bad (ΔV predates them), so only
       [preserved] grows; [bad]/[bad_order]/[depths] are untouched *)
    let preserved = Bitset.copy a.preserved in
    List.iter (Bitset.add preserved) !resurrected;
    Some { a with prov = prov'; preserved; dead_s; dead_v }
  with Fallback -> None

let can_extend_in_place (a : t) ~ins (prov' : Provenance.t) =
  Option.is_some (try_resurrect a ~ins prov')

let extend (a : t) ~ins (prov : Provenance.t) =
  match try_resurrect a ~ins prov with
  | Some r -> r
  | None ->
  (* merge path: ids move, so dead slots must be gathered out first —
     the merge below assumes the old arrays are exactly the old live
     state *)
  let a = compact a in
  let ns = num_stuples a in
  let ins_arr = Array.of_list (R.Stuple.Set.elements ins) in
  let ni = Array.length ins_arr in
  let ns' = ns + ni in
  let stuples = Array.make ns' (R.Stuple.make "" (R.Tuple.of_list [])) in
  let smap = Array.make ns (-1) in
  (* merge the two sorted runs: id order is sorted-tuple order, so an old
     sid shifts by exactly the number of inserted tuples before it *)
  let i = ref 0 and j = ref 0 in
  for sid' = 0 to ns' - 1 do
    let take_old =
      !j >= ni || (!i < ns && R.Stuple.compare a.stuples.(!i) ins_arr.(!j) < 0)
    in
    if take_old then begin
      stuples.(sid') <- a.stuples.(!i);
      smap.(!i) <- sid';
      incr i
    end
    else begin
      stuples.(sid') <- ins_arr.(!j);
      incr j
    end
  done;
  let nv = num_vtuples a in
  let nv' = Vtuple.Map.cardinal prov.Provenance.witness in
  let vtuples = Array.make nv' (Vtuple.make "" (R.Tuple.of_list [])) in
  let witness = Array.make nv' [||] in
  let weights = Array.make nv' 0.0 in
  let bad = Bitset.create nv' in
  let wtbl = prov.Provenance.problem.Problem.weights in
  (* the old vtuples are an ascending subsequence of the (sorted) new
     witness domain — one merge walk separates survivors (rows remapped,
     weights and bad bits copied) from gained view tuples (witness
     interned by bisection over the new stuple table) *)
  let old_vid = ref 0 in
  let vid = ref 0 in
  Vtuple.Map.iter
    (fun vt ws ->
      let v = !vid in
      incr vid;
      vtuples.(v) <- vt;
      if !old_vid < nv && Vtuple.equal a.vtuples.(!old_vid) vt then begin
        witness.(v) <- Array.map (fun sid -> smap.(sid)) a.witness.(!old_vid);
        weights.(v) <- a.weights.(!old_vid);
        if Bitset.mem a.bad !old_vid then Bitset.add bad v;
        incr old_vid
      end
      else begin
        let w = Array.make (R.Stuple.Set.cardinal ws) 0 in
        let k = ref 0 in
        R.Stuple.Set.iter
          (fun st ->
            (match bisect ~compare:R.Stuple.compare stuples st with
            | Some sid -> w.(!k) <- sid
            | None ->
              invalid_arg
                (Format.asprintf "Arena.extend: witness member %a outside D"
                   R.Stuple.pp st));
            incr k)
          ws;
        witness.(v) <- w;
        weights.(v) <- Weights.get wtbl vt
        (* a gained view tuple is never bad: ΔV predates it *)
      end)
    prov.Provenance.witness;
  assert (!old_vid = nv);
  assemble prov ~stuples ~vtuples ~witness ~weights ~bad

(* ---- connected components ----

   Components of the stuple↔vtuple incidence graph: two source tuples are
   connected iff some witness contains both. A view tuple's witness lies
   entirely inside one component, so solving per component and unioning
   the answers is exact for both feasibility and cost. Components are
   numbered canonically — by first appearance in ascending live sid
   order — which makes any two membership-equal partitions
   bit-identical. The session's live index ([Component_index]) keeps
   stable ids instead and exports this numbering on demand. *)

type partition = {
  comp_of_sid : int array;
  comp_of_vid : int array;
  num_components : int;
}

(* union-find with union-by-min (the root is the smallest member), so
   scanning ascending live sids meets each class's root first: it takes
   the next fresh label, and [labels] doubles as the root->label table.
   A live class's root is live, because dead slots are never unioned
   into live rows; dead slots keep label -1. *)
let partition (a : t) =
  let ns = num_stuples a in
  let parent = Setcover.Unionfind.create ns in
  Array.iteri
    (fun vid w ->
      if Array.length w > 1 && not (Bitset.mem a.dead_v vid) then
        Array.iter (fun sid -> Setcover.Unionfind.union parent w.(0) sid) w)
    a.witness;
  let comp_of_sid = Array.make ns (-1) in
  let next = ref 0 in
  for sid = 0 to ns - 1 do
    if not (Bitset.mem a.dead_s sid) then begin
      let r = Setcover.Unionfind.find parent sid in
      if comp_of_sid.(r) = -1 then begin
        comp_of_sid.(r) <- !next;
        incr next
      end;
      comp_of_sid.(sid) <- comp_of_sid.(r)
    end
  done;
  {
    comp_of_sid;
    comp_of_vid =
      Array.mapi
        (fun vid w ->
          if Bitset.mem a.dead_v vid || Array.length w = 0 then -1
          else comp_of_sid.(w.(0)))
        a.witness;
    num_components = !next;
  }

(* ---- shards ---- *)

type shard = {
  arena : t;
  component : int;
  global_sids : int array;
  global_vids : int array;
}

type proto_shard = {
  p_component : int;
  p_sids : int array;
  p_vids : int array;
}

let materialize (a : t) (ps : proto_shard) =
  let global_sids = ps.p_sids and global_vids = ps.p_vids in
  let stuples =
    Array.fold_left
      (fun acc sid -> R.Stuple.Set.add a.stuples.(sid) acc)
      R.Stuple.Set.empty global_sids
  in
  (* the shard's ΔV comes off the bitset, never off [a.prov]: a request
     stamps its ΔV on the bitsets alone *)
  let vtuples, bad =
    Array.fold_left
      (fun (vs, bad) vid ->
        let vt = a.vtuples.(vid) in
        (Vtuple.Set.add vt vs, if Bitset.mem a.bad vid then Vtuple.Set.add vt bad else bad))
      (Vtuple.Set.empty, Vtuple.Set.empty) global_vids
  in
  let prov = Provenance.restrict a.prov ~stuples ~vtuples ~bad in
  let arena = build prov in
  (* restrict+build assigns shard ids in sorted-tuple order; the
     global id buckets are ascending subsequences of the (sorted)
     parent arrays, so position k of the shard is global_sids.(k) *)
  assert (num_stuples arena = Array.length global_sids);
  assert (num_vtuples arena = Array.length global_vids);
  { arena; component = ps.p_component; global_sids; global_vids }

let preserved_degree t sid =
  let d = ref 0 in
  Array.iter (fun vid -> if Bitset.mem t.preserved vid then incr d) t.containing.(sid);
  !d

let candidate_ids t =
  let mark = Bitset.create (num_stuples t) in
  Array.iter (fun vid -> Array.iter (Bitset.add mark) t.witness.(vid)) t.bad_order;
  Array.of_list (Bitset.elements mark)
