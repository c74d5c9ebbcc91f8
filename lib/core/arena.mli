(** The compiled, integer-dense form of a {!Provenance.t}.

    Key preservation makes the tuple↔witness incidence structure a fixed
    bipartite graph (every view tuple has exactly one witness), so the
    solver hot loops never need the persistent tree-based sets the
    provenance index is built from. [build] interns every source tuple
    and view tuple to a contiguous id — in [Stuple.compare] /
    [Vtuple.compare] order, so id order coincides with set order and
    arena folds replay the exact float-accumulation sequences of the
    set-based reference implementations — and lowers the witness and
    containing maps to int arrays, with bad/preserved as {!Setcover.Bitset}s.

    Solvers run on the arrays and convert back to sets only at the API
    boundary; see {!Primal_dual.solve_arena} and {!Lowdeg.solve}. *)

module R := Relational

type t = private {
  prov : Provenance.t;                (** the index this arena compiles *)
  stuples : R.Stuple.t array;         (** sid -> source tuple, sorted; every tuple of [D] *)
  vtuples : Vtuple.t array;           (** vid -> view tuple, sorted; all of [V] *)
  witness : int array array;          (** vid -> witness sids, ascending *)
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

(** Compile a provenance index. Cost is one hashtable pass over tuples
    plus the sorted traversals of the witness/containing maps. *)
val build : Provenance.t -> t

(** [of_problem p] — the arena of a fresh index of [p], in one build:
    the sids, vids and witness rows {!Provenance.build_interned} fills
    its maps from are the arena's arrays, so no tuple is interned
    twice. Equals [build (Provenance.build p)] field for field (its
    [prov]'s maps equal [Provenance.build p]'s by [Map.equal]); raises
    {!Provenance.Ambiguous_witness} where that raises, and
    [Invalid_argument] on a ΔV tuple with no witness where [build]
    does. [Engine.create] builds its session index, fresh or
    recovered, this way. *)
val of_problem : Problem.t -> t

(** [with_deletions a prov] — the arena re-stamped for
    [prov = Provenance.with_deletions a.prov reqs]: bad/preserved
    bitsets and the processing order recomputed, every array shared.
    Equals [build prov] without the interning pass. *)
val with_deletions : t -> Provenance.t -> t

(** [with_requests a reqs] — the request path's re-stamp, in one pass:
    each requested view tuple interns by bisection into a live vid, and
    the bitsets and processing order stamp exactly as [with_deletions]
    stamps them. [prov] stays [a.prov], so the result builds no
    re-targeted {!Provenance.t} and costs O(‖ΔV‖ log ‖V‖) plus bitset
    words. On success, its [bad], [preserved], [bad_order] and
    [forest_case] equal those of
    [with_deletions a (Provenance.with_deletions a.prov reqs)]; else it
    returns the error {!Delta_request.validate} [~views:a.prov.views]
    reports first.

    This is how the engine's session arena stays: its [prov] is the
    ΔV-free live index and a round's ΔV lives only in the bitsets of
    the re-stamp. Everything the planner reads of such an arena is
    ΔV-free or comes off the bitsets ({!materialize}, the composite
    outcome of {!Side_effect.eval_arena}); a whole-instance solver reads
    [prov], so it runs on {!consistent} instead. *)
val with_requests : t -> Delta_request.t list -> (t, Delta_request.error) result

(** [consistent a] — [a] with its [prov] re-targeted at the ΔV the
    bitsets carry ({!Provenance.with_deletions}), so that solvers that
    read [prov] see the same instance as those that read the bitsets.
    [a] itself when both carry no ΔV. *)
val consistent : t -> t

(** [delete a ~dd prov] — the arena after committing the source deletion
    [dd], where [prov = Provenance.delete a.prov dd]: the deleted sids
    and every view tuple whose witness meets [dd] are {e tombstoned} —
    marked dead — and no id moves, so every array is
    shared and the cost is O(‖dd‖ + Σ|containing(dd)|). Live-equivalent
    to [build prov]: [compact (delete a ~dd prov)] is bit-identical to
    [build prov]. [dd] must be live tuples of the arena's database. *)
val delete : t -> dd:R.Stuple.Set.t -> Provenance.t -> t

(** [extend a ~ins prov] — the arena after committing the source
    insertion [ins], where [prov] is [a.prov] with every tuple of [ins]
    {!Provenance.insert}ed. Two regimes: if every inserted tuple (and
    every view answer it re-creates) bisects to a tombstoned slot whose
    stored row and weight match [prov] exactly, the dead bits flip back
    in place — the delete/re-insert fast path, no id movement.
    Otherwise the arena is compacted and the two sorted runs merge
    (existing ids keep their relative order, shifting only past the
    inserted tuples), surviving witness rows remap, gained view tuples
    intern their witness by bisection, and containing re-inverts — the
    result then equals [build prov]. [ins] must be disjoint from the
    arena's {e live} database. *)
val extend : t -> ins:R.Stuple.Set.t -> Provenance.t -> t

(** [can_extend_in_place a ~ins prov] — would [extend] take the
    resurrection fast path? Lets a caller that must keep derived state
    (the {!Component_index}) aligned with the physical layout compact
    {e before} a merge-path extend rather than after. *)
val can_extend_in_place : t -> ins:R.Stuple.Set.t -> Provenance.t -> bool

(** [compact a] — gather the live slots, dropping every tombstone:
    survivors land order-preservingly exactly where a fresh [build] of
    [a.prov] puts them (bit-identical, including re-stamped ΔV state).
    The identity (physically [== a]) on arenas
    with no tombstones, hence idempotent. *)
val compact : t -> t

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

(** One active component, compiled as a standalone arena over the
    restricted provenance ({!Provenance.restrict}) — solvers never see
    foreign ids. Position [k] of the shard arena corresponds to the
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

(** Compile one proto-shard into a standalone solvable {!shard}
    (restrict + build — the expensive step a memoizing planner pays
    only for the dirty components). The shard's ΔV is read off the
    [bad] bitset, so a {!with_requests} re-stamp materializes the same
    shards as a {!with_deletions} one. The proto-shards come from
    {!Component_index.active}. *)
val materialize : t -> proto_shard -> shard

(** [preserved_degree a sid] — number of preserved view tuples whose
    witness contains the tuple (the LowDeg degree). *)
val preserved_degree : t -> int -> int

(** Sids occurring in at least one bad witness, ascending — the
    candidate deletions. *)
val candidate_ids : t -> int array
