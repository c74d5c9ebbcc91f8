module R = Relational
module Bitset = Setcover.Bitset

type t = {
  problem : Problem.t;
  prov : Provenance.t Lazy.t;
  stuples : R.Stuple.t array;
  vtuples : Vtuple.t array;
  witness : int array array;
  paths : int array array;
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

(* a bad bitset over [vtuples] as a problem's deletion map *)
let deletions_of vtuples bad =
  Bitset.fold
    (fun vid acc ->
      let vt = vtuples.(vid) in
      Smap.update vt.Vtuple.query
        (fun cur ->
          Some (R.Tuple.Set.add vt.Vtuple.tuple (Option.value ~default:R.Tuple.Set.empty cur)))
        acc)
    bad Smap.empty

(* The rows of the slots [sids] and [vids] (ascending), with their
   weights and bad bits, renumbered by [rank]: a sub-instance's rows land
   where a fresh build of it puts them *)
let restrict_rows (a : t) ~sids ~vids rank =
  let remap row = Array.map rank row in
  let bad = Bitset.create (Array.length vids) in
  Array.iteri (fun k vid -> if Bitset.mem a.bad vid then Bitset.add bad k) vids;
  ( {
      Provenance.sorted_stuples = Array.map (Array.get a.stuples) sids;
      sorted_vtuples = Array.map (Array.get a.vtuples) vids;
      witness_rows = Array.map (fun vid -> remap a.witness.(vid)) vids;
      path_rows = Array.map (fun vid -> remap a.paths.(vid)) vids;
    },
    Array.map (Array.get a.weights) vids,
    bad )

(* The live slots gathered order-preservingly (a live view tuple's rows
   hold no dead sid); the arrays themselves when no slot is dead *)
let gather (a : t) =
  if Bitset.is_empty a.dead_s && Bitset.is_empty a.dead_v then
    ( { Provenance.sorted_stuples = a.stuples; sorted_vtuples = a.vtuples;
        witness_rows = a.witness; path_rows = a.paths },
      a.weights,
      a.bad )
  else begin
    let live dead n = Array.of_list (Bitset.elements (Bitset.diff (Bitset.full n) dead)) in
    let sids = live a.dead_s (Array.length a.stuples) in
    let rank = Array.make (Array.length a.stuples) (-1) in
    Array.iteri (fun k sid -> rank.(sid) <- k) sids;
    restrict_rows a ~sids ~vids:(live a.dead_v (Array.length a.vtuples)) (Array.get rank)
  end

(* The whole-instance index of an arena's live rows under the ΔV of its
   [bad] bitset: what [provenance] forces, never on a round *)
let whole (a : t) =
  let ids, _, bad = gather a in
  Provenance.of_interning
    (Problem.patch ~db:a.problem.Problem.db
       ~deletions:(deletions_of ids.Provenance.sorted_vtuples bad)
       a.problem)
    ids

(* Every record gets its own thunk over its own rows and bitsets: a
   copied thunk would build the index of the record it was copied from *)
let on_demand (r : t) =
  let rec r' = { r with prov = lazy (whole r') } in
  r'

let with_prov (r : t) prov = { r with prov = Lazy.from_val prov }

(* The tail every physical layout shares ([build], [of_problem],
   [compact], [materialize] and the merge path of [insert]): a
   tombstone-free record over fresh rows, its index built on demand.
   [containing] inverts [witness] rather than re-interning every
   containing set: filling in ascending vid keeps each row in
   Vtuple.compare order. *)
let assemble (problem : Problem.t) (ids : Provenance.interning) ~weights ~bad =
  let stuples = ids.Provenance.sorted_stuples and witness = ids.Provenance.witness_rows in
  let ns = Array.length stuples and nv = Array.length ids.Provenance.sorted_vtuples in
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
  let depths = compute_depths problem.Problem.queries stuples in
  let forest_case, order = processing_order ~depths ~witness ~bad in
  let preserved = Bitset.diff (Bitset.full nv) bad in
  let rec a =
    {
      problem;
      prov = lazy (whole a);
      stuples;
      vtuples = ids.Provenance.sorted_vtuples;
      witness;
      paths = ids.Provenance.path_rows;
      containing;
      bad;
      preserved;
      weights;
      bad_order = Array.of_list order;
      forest_case;
      dead_s = Bitset.create ns;
      dead_v = Bitset.create nv;
      depths;
    }
  in
  a

(* A fresh interning compiled: weights by vid, the bad bitset by one
   merge walk ([problem]'s deletions and [vtuples] both ascend in
   Vtuple.compare order; a bad view tuple outside [vtuples] has no
   witness, and the walk stops on it), then [assemble]. Ids in
   Stuple.compare / Vtuple.compare order make ascending-id iteration
   replay exactly the Set.fold order of the set-based solvers
   (bit-identical float accumulation). *)
let compile ~caller (problem : Problem.t) (ids : Provenance.interning) =
  let vtuples = ids.Provenance.sorted_vtuples in
  let nv = Array.length vtuples in
  let weights = Array.map (Weights.get problem.Problem.weights) vtuples in
  let bad = Bitset.create nv in
  let vid = ref 0 in
  Smap.iter
    (fun query ts ->
      R.Tuple.Set.iter
        (fun tuple ->
          let b = Vtuple.make query tuple in
          while !vid < nv && Vtuple.compare vtuples.(!vid) b < 0 do
            incr vid
          done;
          if !vid < nv && Vtuple.equal vtuples.(!vid) b then Bitset.add bad !vid
          else
            invalid_arg
              (Format.asprintf "%s: bad view tuple %a has no witness" caller Vtuple.pp b))
        ts)
    problem.Problem.deletions;
  assemble problem ids ~weights ~bad

let build prov =
  with_prov
    (compile ~caller:"Arena.build" prov.Provenance.problem (Provenance.interning prov))
    prov

let of_problem problem = compile ~caller:"Arena.of_problem" problem (Provenance.intern problem)

let provenance (a : t) = Lazy.force a.prov

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

   The rows depend only on (D, Q) and the bitsets on ΔV, with one extra
   axis: committed deletions are *tombstones*. [tombstone] marks slots
   dead; the physical arrays (and so every id) stay put, and only
   [compact] rewrites them. Ids are assigned in sorted-tuple order and
   tombstones never move a slot, so gathering the live slots
   order-preservingly lands every survivor exactly where a fresh build
   of the live instance would put it — the differential property suites
   check both paths field by field. *)

(* the problem over the database a commit leaves; ΔV stays the bitsets' *)
let with_db (a : t) db = Problem.patch ~db ~deletions:a.problem.Problem.deletions a.problem

(* The ΔV stamp both re-targets share: preserved is live ∧ ¬bad, and the
   processing order re-sorts only the bad ids over the memoized per-sid
   depths — bitset words and bad rows, no O(‖D‖) sweep. *)
let stamp (a : t) bad =
  let preserved = Bitset.full (num_vtuples a) in
  Bitset.diff_into ~into:preserved bad;
  Bitset.diff_into ~into:preserved a.dead_v;
  let forest_case, order = processing_order ~depths:a.depths ~witness:a.witness ~bad in
  on_demand { a with bad; preserved; bad_order = Array.of_list order; forest_case }

(* Kept with its Provenance-typed signature for perfbench's traced
   shadow; ROADMAP item 1's benchmark PR deletes it. *)
let with_deletions (a : t) (prov : Provenance.t) =
  let bad = Bitset.create (num_vtuples a) in
  Vtuple.Set.iter (fun vt -> Bitset.add bad (vtuple_id a vt)) prov.Provenance.bad;
  with_prov (stamp a bad) prov

(* One pass over the requests in order: an unknown view or a tuple that
   is not a live view answer stops it with the error
   [Delta_request.validate] reports first (a live vid is exactly a
   current answer). *)
let with_requests (a : t) (reqs : Delta_request.t list) =
  let names = List.map (fun (q : Cq.Query.t) -> q.Cq.Query.name) a.problem.Problem.queries in
  let bad = Bitset.create (num_vtuples a) in
  let rec go = function
    | [] -> Ok (stamp a bad)
    | (r : Delta_request.t) :: tl ->
      let view = r.Delta_request.view in
      if not (List.mem view names) then
        Error (Delta_request.Unknown_view { view; known = List.sort String.compare names })
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

let view (a : t) query =
  let acc = ref [] in
  Array.iteri
    (fun vid (vt : Vtuple.t) ->
      if String.equal vt.Vtuple.query query && not (Bitset.mem a.dead_v vid) then
        acc := vt.Vtuple.tuple :: !acc)
    a.vtuples;
  R.Tuple.Set.of_list !acc

let tombstone (a : t) ~dd =
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
  let problem = with_db a (R.Instance.delete a.problem.Problem.db dd) in
  on_demand { a with problem; bad; preserved; bad_order; dead_s; dead_v }

(* Kept with its Provenance-typed signature for perfbench's traced
   shadow; ROADMAP item 1's benchmark PR deletes it. *)
let delete (a : t) ~dd (prov : Provenance.t) = with_prov (tombstone a ~dd) prov

let compact (a : t) =
  if not (tombstoned a) then a
  else begin
    let ids, weights, bad = gather a in
    assemble a.problem ids ~weights ~bad
  end

(* ---- insertion ----

   The view tuples an insertion gains, with their witnesses, folded
   over the running live database exactly as [Provenance.insert] folds
   one tuple after another: each tuple of [ins] in ascending order is
   added to the database ([Key_violation] on a clash), and every answer
   [Cq.Maintain.gained_answers] derives for it must be new and have one
   derivation, or [Ambiguous_witness] names it — the same inputs raise
   the same exception. The result is layout-free: view tuple ->
   body-order witness, and the database after the insertion. *)
let gain (a : t) ins =
  let live vt =
    match bisect ~compare:Vtuple.compare a.vtuples vt with
    | Some vid -> not (Bitset.mem a.dead_v vid)
    | None -> false
  in
  R.Stuple.Set.fold
    (fun st (db, gained) ->
      let db' = R.Instance.add_stuple db st in
      let gained =
        List.fold_left
          (fun gained (q : Cq.Query.t) ->
            R.Tuple.Map.fold
              (fun tup ws gained ->
                let vt = Vtuple.make q.Cq.Query.name tup in
                match ws with
                | [ w ] when not (live vt || Vtuple.Map.mem vt gained) -> Vtuple.Map.add vt w gained
                | _ ->
                  (* ≥ 2 new witnesses, or a second derivation of an
                     existing answer: the extended instance is no longer
                     key preserving, exactly what a build of it raises *)
                  raise (Provenance.Ambiguous_witness vt))
              (Cq.Maintain.gained_answers db q st)
              gained)
          gained a.problem.Problem.queries
      in
      (db', gained))
    ins
    (a.problem.Problem.db, Vtuple.Map.empty)

(* ---- resurrection fast path ----

   A delete/re-insert workload re-creates tuples whose slots still sit
   dead in the arrays. If every inserted tuple bisects to a dead stuple
   slot, and every gained view tuple bisects to a dead vtuple slot whose
   stored witness row, path row and weight match the new derivation
   exactly, then flipping those dead bits back *is* the extended arena —
   no sorted-run merge, no id movement, O(‖ins‖·log + gained).
   Any mismatch — a genuinely new tuple, an answer re-derived through a
   different witness, a row referencing a still-dead slot — falls back
   to compact-and-merge. *)
let resurrect (a : t) ~ins (db, gained) =
  let exception Fallback in
  try
    let dead_s = Bitset.copy a.dead_s and dead_v = Bitset.copy a.dead_v in
    R.Stuple.Set.iter
      (fun st ->
        match bisect ~compare:R.Stuple.compare a.stuples st with
        | Some sid when Bitset.mem dead_s sid -> Bitset.remove dead_s sid
        | _ -> raise Fallback)
      ins;
    let sid st =
      match bisect ~compare:R.Stuple.compare a.stuples st with
      | Some sid when not (Bitset.mem dead_s sid) -> sid
      | _ -> raise Fallback
    in
    let preserved = Bitset.copy a.preserved in
    Vtuple.Map.iter
      (fun vt w ->
        match bisect ~compare:Vtuple.compare a.vtuples vt with
        | Some vid when Bitset.mem dead_v vid ->
          (* the dead slot must reproduce the new derivation
             bit-exactly: same rows, same weight *)
          let body = Array.map sid w in
          if
            Provenance.witness_row body <> a.witness.(vid)
            || Provenance.path_row body <> a.paths.(vid)
            || not (Float.equal a.weights.(vid) (Weights.get a.problem.Problem.weights vt))
          then raise Fallback;
          Bitset.remove dead_v vid;
          (* resurrected answers are live ∧ ¬bad (ΔV predates them), so
             only [preserved] grows; [bad]/[bad_order]/[depths] are
             untouched *)
          Bitset.add preserved vid
        | _ -> raise Fallback)
      gained;
    Some (on_demand { a with problem = with_db a db; preserved; dead_s; dead_v })
  with Fallback -> None

(* two ascending runs merged, and where each element of each landed *)
let merge_runs ~compare old fresh =
  let n = Array.length old and m = Array.length fresh in
  let out = Array.append old fresh in
  let at_old = Array.make n 0 and at_fresh = Array.make m 0 in
  let i = ref 0 and j = ref 0 in
  for k = 0 to n + m - 1 do
    if !j >= m || (!i < n && compare old.(!i) fresh.(!j) < 0) then begin
      out.(k) <- old.(!i);
      at_old.(!i) <- k;
      incr i
    end
    else begin
      out.(k) <- fresh.(!j);
      at_fresh.(!j) <- k;
      incr j
    end
  done;
  (out, at_old, at_fresh)

(* merge path: ids move, so dead slots are gathered out first — the
   merge assumes the old arrays are exactly the old live state. Id order
   is sorted-tuple order, so an old id shifts by exactly the number of
   inserted tuples before it; surviving rows remap, and each gained
   witness interns by bisection over the merged stuples *)
let merge (a : t) ~ins (db, gained) =
  let a = compact a in
  let stuples, smap, _ =
    merge_runs ~compare:R.Stuple.compare a.stuples (Array.of_list (R.Stuple.Set.elements ins))
  in
  let gained = Array.of_seq (Vtuple.Map.to_seq gained) in
  let vtuples, vmap, gmap = merge_runs ~compare:Vtuple.compare a.vtuples (Array.map fst gained) in
  let nv = Array.length vtuples in
  let witness = Array.make nv [||] and paths = Array.make nv [||] in
  let weights = Array.make nv 0.0 and bad = Bitset.create nv in
  let remap row = Array.map (Array.get smap) row in
  Array.iteri
    (fun vid k ->
      witness.(k) <- remap a.witness.(vid);
      paths.(k) <- remap a.paths.(vid);
      weights.(k) <- a.weights.(vid);
      if Bitset.mem a.bad vid then Bitset.add bad k)
    vmap;
  let sid st = Option.get (bisect ~compare:R.Stuple.compare stuples st) in
  (* a gained view tuple is never bad: ΔV predates it *)
  Array.iteri
    (fun j k ->
      let vt, w = gained.(j) in
      let body = Array.map sid w in
      witness.(k) <- Provenance.witness_row body;
      paths.(k) <- Provenance.path_row body;
      weights.(k) <- Weights.get a.problem.Problem.weights vt)
    gmap;
  ( a,
    assemble (with_db a db)
      { Provenance.sorted_stuples = stuples; sorted_vtuples = vtuples; witness_rows = witness;
        path_rows = paths }
      ~weights ~bad )

let insert (a : t) ~ins =
  let g = gain a ins in
  match resurrect a ~ins g with Some r -> (a, r) | None -> merge a ~ins g

(* Kept with their Provenance-typed signatures for perfbench's traced
   shadow; ROADMAP item 1's benchmark PR deletes them. *)
let can_extend_in_place (a : t) ~ins (_ : Provenance.t) =
  Option.is_some (resurrect a ~ins (gain a ins))

let extend (a : t) ~ins (prov : Provenance.t) = with_prov (snd (insert a ~ins)) prov

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
  (* shard ids are ranks in the ascending global id lists: the shard's
     tuples form an ascending subsequence of the parent's, so position
     k of the shard is global_sids.(k). The shard's ΔV comes off the
     bitset (a request stamps its ΔV on the bitsets alone), and it
     keeps the parent's problem: its solvers read rows, not a database *)
  let ids, weights, bad =
    restrict_rows a ~sids:global_sids ~vids:global_vids (fun sid ->
        Option.get (bisect ~compare:Int.compare global_sids sid))
  in
  let shard = assemble a.problem ids ~weights ~bad in
  (* only its index reads a database of its own, built then by insertion *)
  let own () =
    let empty = R.Instance.empty (R.Instance.schema a.problem.Problem.db) in
    { shard with problem = with_db shard (Array.fold_left R.Instance.add_stuple empty shard.stuples) }
  in
  { arena = { shard with prov = lazy (whole (own ())) }; component = ps.p_component; global_sids;
    global_vids }

let preserved_degree t sid =
  let d = ref 0 in
  Array.iter (fun vid -> if Bitset.mem t.preserved vid then incr d) t.containing.(sid);
  !d

let candidate_ids t =
  let mark = Bitset.create (num_stuples t) in
  Array.iter (fun vid -> Array.iter (Bitset.add mark) t.witness.(vid)) t.bad_order;
  Array.of_list (Bitset.elements mark)
