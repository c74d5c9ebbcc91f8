(** The compiled, integer-dense form of an instance: the session's live
    index.

    Key preservation makes the tuple↔witness incidence structure a fixed
    bipartite graph (every view tuple has exactly one witness). Every
    source tuple and view tuple is interned to a contiguous id — in
    [Stuple.compare] / [Vtuple.compare] order, so id order coincides
    with set order and arena folds replay the exact float-accumulation
    sequences of the set-based reference implementations — the witness,
    path and containing sets are int arrays, and bad/preserved are
    {!Setcover.Bitset}s. A session's arena is compiled from the join and
    patched by every commit with no {!Provenance.t} behind it; that
    index is built only on demand ({!provenance}). *)

module R := Relational

type t = private {
  problem : Problem.t;
      (** the live database (commits patch it), queries and weights; ΔV
          is [bad]'s — re-stamps and commits leave [problem]'s
          deletions as compiled *)
  prov : Provenance.t Lazy.t;  (** see {!provenance} *)
  stuples : R.Stuple.t array;         (** sid -> source tuple, sorted; every tuple of [D] *)
  vtuples : Vtuple.t array;           (** vid -> view tuple, sorted; all of [V] *)
  witness : int array array;          (** vid -> witness sids, ascending *)
  paths : int array array;            (** vid -> witness sids in body-atom order,
                                          consecutive duplicates dropped (the
                                          tree algorithms' join path) *)
  containing : int array array;       (** sid -> vids whose witness contains it, ascending *)
  bad : Setcover.Bitset.t;            (** ΔV as vids *)
  preserved : Setcover.Bitset.t;      (** V \ ΔV as vids *)
  weights : float array;              (** vid -> preservation weight *)
  bad_order : int array;              (** bad vids in the primal-dual processing
                                          order (decreasing lca depth on forests,
                                          else decreasing witness size) *)
  forest_case : bool;                 (** did the query set admit the tree order? *)
  dead_s : Setcover.Bitset.t;         (** tombstoned sids (excluded from every
                                          live bitset; slots reusable by
                                          re-insertion) *)
  dead_v : Setcover.Bitset.t;         (** tombstoned vids *)
  depths : int array option;          (** sid -> rel-tree depth memo ([None]
                                          in the non-forest case); a pure
                                          function of the physical layout,
                                          shared across re-stamps *)
}

(** [of_problem p] — the arena of [p], compiled straight from its join
    ({!Provenance.intern}): no map is filled. Equals
    [build (Provenance.build p)] field for field, and its
    {!provenance} equals [Provenance.build p] by [Map.equal]; raises
    {!Provenance.Ambiguous_witness} where that raises, and
    [Invalid_argument] on a ΔV tuple with no witness where [build]
    does. [Engine.create] builds its session index, fresh or
    recovered, this way. *)
val of_problem : Problem.t -> t

(** Compile an existing provenance index (its {!Provenance.interning}):
    for standalone solves. The result's {!provenance} is [prov]. *)
val build : Provenance.t -> t

(** [provenance a] — the whole-instance index of [a]'s live rows under
    the ΔV of [bad]: equals [Provenance.build] of that instance by
    [Map.equal]. Built from the rows on the first call and kept with
    [a] (already built on {!build}, {!materialize} and {!consistent}
    arenas); never on a session round. Two domains must not force it
    at once, so whatever hands an arena to a worker domain builds it
    first. *)
val provenance : t -> Provenance.t

(** [with_requests a reqs] — the request path's re-stamp, in one pass:
    each requested view tuple interns by bisection into a live vid, and
    the bad/preserved bitsets and the processing order are stamped over
    the shared rows, at O(‖ΔV‖ log ‖V‖) plus bitset words, building no
    {!Provenance.t}. On success, its [bad], [preserved], [bad_order] and
    [forest_case] equal those of
    [with_deletions a (Provenance.with_deletions (provenance a) reqs)];
    else it returns the error {!Delta_request.validate} reports first
    for the arena's views.

    This is how the engine's session arena stays ΔV-free: a round's ΔV
    lives only in the bitsets of the re-stamp. The planner reads such an
    arena's rows and bitsets ({!materialize},
    {!Side_effect.eval_arena}); a whole-instance solver reads the
    index, so it runs on {!consistent} instead. *)
val with_requests : t -> Delta_request.t list -> (t, Delta_request.error) result

(** [consistent a] — [a] with its {!provenance} built, for the
    solvers that read it. *)
val consistent : t -> t

(** [view a q] — the live answers of query [q]. *)
val view : t -> string -> R.Tuple.Set.t

(** [tombstone a ~dd] — the arena after committing the source deletion
    [dd] (live tuples): the deleted sids and every view tuple whose
    witness meets [dd] are {e tombstoned} — marked dead — and no id
    moves, so every array is shared and the cost is
    O(‖dd‖ + Σ|containing(dd)|) plus the database update.
    [compact (tombstone a ~dd)] equals [of_problem] of the patched
    instance. *)
val tombstone : t -> dd:R.Stuple.Set.t -> t

(** [insert a ~ins] — [(a', r)]: [r] is the arena after committing the
    source insertion [ins] (absent from the live database) to [a'].
    The gained answers are {!Cq.Maintain.gained_answers} folded over
    the running database in ascending order, as {!Provenance.insert}
    folds them, so the same inputs raise the same
    [Relational.Relation.Key_violation] or
    {!Provenance.Ambiguous_witness}. If every inserted tuple and gained
    answer bisects to a tombstoned slot whose rows and weight match,
    the dead bits flip back in place and [a' = a]. Otherwise [a'] is
    [compact a] (a caller keeping the {!Component_index} aligned
    compacts it too) and the sorted runs merge: ids keep their
    relative order, and [r] equals [of_problem] of the extended
    instance. *)
val insert : t -> ins:R.Stuple.Set.t -> t * t

(** [compact a] — gather the live slots, dropping every tombstone:
    survivors land order-preservingly exactly where a fresh build of
    the live instance puts them (bit-identical, including re-stamped ΔV
    state). The identity (physically [== a]) on arenas with no
    tombstones, hence idempotent. *)
val compact : t -> t

(** {2 Provenance-typed wrappers}

    Thin wrappers over the cores above, with the signatures perfbench's
    traced shadow calls; ROADMAP item 1's benchmark PR deletes them.
    [prov] is the patched or re-targeted index, and becomes the
    result's {!provenance}. *)

(** [a] re-stamped at [prov]'s ΔV, [prov = Provenance.with_deletions (provenance a) reqs] *)
val with_deletions : t -> Provenance.t -> t

(** {!tombstone}, [prov = Provenance.delete (provenance a) dd] *)
val delete : t -> dd:R.Stuple.Set.t -> Provenance.t -> t

(** [snd (insert a ~ins)], [prov] folding {!Provenance.insert} over [ins] *)
val extend : t -> ins:R.Stuple.Set.t -> Provenance.t -> t

(** Would {!insert} flip dead bits back in place? [prov] is not read. *)
val can_extend_in_place : t -> ins:R.Stuple.Set.t -> Provenance.t -> bool

val num_stuples : t -> int
val num_vtuples : t -> int

(** Live counts — [num_stuples]/[num_vtuples] minus tombstones. These
    are the semantic ‖D‖ and ‖V‖ of the instance the arena currently
    represents. *)

val live_stuples : t -> int
val live_vtuples : t -> int

(** Does the arena carry any tombstone? *)
val tombstoned : t -> bool

(** Dead slots as a fraction of all physical slots (0 when empty) — the
    engine's compaction trigger. *)
val tombstone_ratio : t -> float

(** Interning lookups; [Invalid_argument] on tuples unknown to the
    arena. *)

val stuple_id : t -> R.Stuple.t -> int
val vtuple_id : t -> Vtuple.t -> int

(** The sid of a live source tuple; [None] for a tombstoned or unknown
    one. *)
val find_live_sid : t -> R.Stuple.t -> int option

(** The source tuples of a list of sids. *)
val to_stuple_set : t -> int list -> R.Stuple.Set.t

(** {2 Connected components}

    The stuple↔vtuple incidence graph shatters into independent
    components: a view tuple's witness lies entirely inside one
    component, so solving per component and unioning the per-shard
    deletions is exact for both feasibility and cost. *)

type partition = {
  comp_of_sid : int array;      (** sid -> component id ([-1] for
                                    tombstoned slots) *)
  comp_of_vid : int array;      (** vid -> component of its witness
                                    ([-1] for tombstoned slots and empty
                                    witnesses, the latter impossible on
                                    built arenas) *)
  num_components : int;
}

(** The canonical partition, from scratch: union-find over the live
    witness rows, O(‖D‖ + Σ|witness| α). Components are numbered by
    first appearance in ascending {e live} sid order — equivalently, by
    their least live sid — so membership-equal partitions are
    structurally equal; in particular the partition of a tombstoned
    arena assigns the same labels as the partition of its compacted
    form. The partition depends only on the live witness structure, so
    it is valid unchanged for any [with_deletions] re-stamp of the same
    arena. The live session index, {!Component_index}, is maintained
    under stable ids across deltas instead and exports exactly this
    numbering ({!Component_index.partition}). *)
val partition : t -> partition

(** One active component, compiled as a standalone arena from the
    parent's rows — solvers never see foreign ids. Position [k] of the shard arena corresponds to the
    parent id [global_sids.(k)] / [global_vids.(k)] (id order is
    sorted-tuple order on both sides, and the shard's tuples form an
    ascending subsequence of the parent's). *)
type shard = {
  arena : t;
  component : int;              (** parent component id *)
  global_sids : int array;      (** shard sid -> parent sid, ascending *)
  global_vids : int array;      (** shard vid -> parent vid, ascending *)
}

(** An active component {e before} compilation: just its member ids in
    the parent arena (both ascending). Everything a shard arena will
    contain is a pure function of these lists and the parent — which is
    what lets {!Fingerprint.shard} key a memo cache without paying for
    {!materialize}. *)
type proto_shard = {
  p_component : int;            (** parent component id *)
  p_sids : int array;           (** member parent sids, ascending *)
  p_vids : int array;           (** member parent vids, ascending *)
}

(** Compile one proto-shard into a standalone solvable {!shard} — the
    step a memoizing planner pays only for the dirty components. The
    parent's rows and path rows renumber to shard-local ranks, the
    shard's database is rebuilt by insertion, and the shard's ΔV is
    read off the [bad] bitset, so a {!with_requests} re-stamp
    materializes the same shards as a {!with_deletions} one. The shard
    arena's {!provenance} is built here, from those rows
    ({!Provenance.of_interning}): it equals [Provenance.build] of the
    shard's instance, and the solvers that read it never build it.
    The proto-shards come from {!Component_index.active}. *)
val materialize : t -> proto_shard -> shard

(** [preserved_degree a sid] — number of preserved view tuples whose
    witness contains the tuple (the LowDeg degree). *)
val preserved_degree : t -> int -> int

(** Sids occurring in at least one bad witness, ascending — the
    candidate deletions. *)
val candidate_ids : t -> int array
