(** Shatter-and-plan: decompose an instance into independent components
    ({!Component_index.active}, each compiled by {!Arena.materialize}),
    classify each shard, solve shards with the cheapest adequate
    strategy, and recombine.

    Component independence (a witness lies entirely inside one
    component) makes the recombination exact: the union of per-shard
    deletions is feasible, its cost is the sum of shard costs, and the
    instance optimum is the sum of shard optima — so per-shard
    guarantees compose into a {!Solution.Composite} certificate whose
    factor is the {e max} of the shard factors.

    Per-shard policy, in order:
    - {e exact-small} — the candidate set fits under [exact_threshold]:
      brute force, factor 1;
    - {e exact-forest} — {!Dp_tree.applicable}: the pivot-forest DP,
      factor 1;
    - {e approximate} — the approximation portfolio (primal-dual,
      LowDeg, the general reduction, greedy) on the shard alone. LowDeg
      prunes at the shard's own √‖V_shard‖, so its ratio 2√‖V_shard‖
      is at most the whole instance's 2√‖V‖ (Theorem 4 applied per
      shard).
    The ladder is lazy: a tier's entry test runs only when the ladder
    reaches it, so the structural forest test runs only on a shard the
    small tier skipped or failed. An exact tier whose solver times out
    or crashes falls through to the next tier; the shard is reported
    under the tier that answered, with every failure on the way down in
    [failures].

    {2 Shard memoization}

    The same independence makes per-shard answers {e reusable}: a shard
    untouched by the deltas since it was last solved is the same
    sub-instance, and the solvers are deterministic, so its answer can
    be spliced back without running anything. {!solve} takes an optional
    {!cache} — a bounded LRU keyed by canonical content fingerprints
    ({!Fingerprint.arena}, invariant under component ids and id
    compaction) — and reads each component's dirty bit off the
    {!Component_index} it enumerates with; only dirty shards re-solve,
    and the composite
    certificate is recomputed over {e all} shards (cost = sum,
    factor = max) so spliced rounds are solution-equivalent to fresh
    ones. See {!cache} for the reuse rules. *)

type classification =
  | Exact_small     (** candidates ≤ [exact_threshold]: brute force *)
  | Exact_forest    (** pivot-forest instance: {!Dp_tree} *)
  | Approximate     (** approximation portfolio *)

type shard_decision = {
  component : int;
      (** the component's id in the {!Component_index} the round
          enumerated: stable within a session (a delta re-labels only
          the components it reaches), not the canonical label of
          {!Arena.partition} — a standalone {!solve} without [~index]
          builds its index, so there the two coincide *)
  stuples : int;
  vtuples : int;
  bad : int;
  classification : classification;
  winner : string;          (** algorithm of the shard's chosen solution *)
  cost : float;             (** its side-effect cost *)
  exact : bool;             (** did an exact tier produce the answer? *)
  degraded : bool;          (** shard fell to the unbudgeted-greedy ladder *)
  cached : bool;            (** spliced from the shard cache, no solver ran *)
  fingerprint : Fingerprint.t option;
      (** the shard's cache key when its answer entered (or was spliced
          from) the shard cache; [None] when nothing was memoized. The
          engine records these in its {!Component_index} memos, which
          {!seed_fragments} restricts onto surviving fragments. *)
}

type report = {
  solutions : Solution.t list;
      (** decomposed: the single recombined {!Solution.Composite};
          otherwise the whole-instance portfolio ranking *)
  failures : Portfolio.failure list;  (** across all shards *)
  degraded : bool;                    (** some shard degraded *)
  decomposed : bool;
      (** true iff the shard pipeline produced the result — any round
          with ≥ 1 active component; false when the instance had no
          active component or an unsolvable shard forced the
          whole-instance fallback *)
  shards : shard_decision list;
      (** ordered by each component's least live sid (the canonical
          label order) *)
  shards_cached : int;
      (** how many of [shards] were spliced from the cache this call *)
  index : Component_index.t;
      (** the component index the round enumerated with ([~index], or
          the one built for [a]). When the round decomposed under a
          [cache], every decided shard's dirty bit is cleared and every
          shard with a [fingerprint] has its (fingerprint, ΔV) recorded
          as its component's {!Component_index.memo}; otherwise it is
          the index as given. The engine installs it as its live
          index. *)
}

val pp_classification : Format.formatter -> classification -> unit
val pp_shard_decision : Format.formatter -> shard_decision -> unit

(** {2 Shard solution cache} *)

(** A bounded LRU ({!Setcover.Lru}) from {!Fingerprint.t} to memoized
    shard answers (winner, deleted set, cost, certificate,
    classification). Every tier's answer is a function of its shard's
    content alone, so an entry stays valid for as long as its
    fingerprint names the shard: a clean shard whose fingerprint is
    present splices its entry verbatim, on every tier. Only
    deterministic answers are stored: a degraded shard, an [Anytime]
    winner, or any recorded timeout/crash is never cached.

    A cache must not be shared between sessions with different solver
    configurations ([exact_threshold] / [only]) — the engine owns one
    cache per session, whose configuration is fixed at [create]. *)
type cache

(** One memoized shard answer — {e plain data}, exactly what splicing a
    clean shard back needs (no arena, no closures): the engine's
    snapshot codec serializes entries verbatim and a recovered session
    restores them ({!cache_entries} / {!cache_restore}). *)
type cache_entry = {
  e_classification : classification;
  e_winner : string;             (** algorithm of the memoized answer *)
  e_deleted : Relational.Stuple.Set.t;
  e_cost : float;
  e_certificate : Solution.certificate;
  e_forest : bool;               (** the shard arena's forest flag *)
  e_split : bool;
      (** entered the cache by fragment restriction ({!seed_fragments})
          rather than by solving; splicing it counts as a fragment
          reuse *)
  e_vtuples : int;
      (** the shard's live ‖V‖ when it was solved; every restriction
          refreshes it to the fragment's. The approximate tier's
          restriction compares √‖V‖ buckets through it *)
  e_decomposition : Decomposition.forest_tree list;
      (** the forest-DP winner's recorded trees
          ({!Solution.decomposition}), which {!seed_fragments} replays
          onto a surviving fragment; empty for every other winner, whose
          answer carries over unchanged *)
}

(** [create_cache ?capacity ()] — an empty cache holding at most
    [capacity] (default 512) shard answers. *)
val create_cache : ?capacity:int -> unit -> cache

val cache_clear : cache -> unit

(** {2 Snapshot hooks}

    A cache's observable state is plain data: the bindings in recency
    order plus the counters. [Engine]'s crash-consistent snapshots
    persist exactly this pair; restoring it rebuilds a cache
    bit-identical to the one written — same future eviction order, same
    lifetime counters. *)

(** The counter block, exported and restored alongside the entries —
    and the one place the lifetime counters are read. *)
type cache_stats = {
  s_hits : int;  (** lifetime splices *)
  s_misses : int;
      (** lifetime misses: clean shards whose fingerprint was absent *)
  s_fragment_reuses : int;
      (** lifetime splices whose entry was seeded by {!seed_fragments} —
          cache hits that exist only because a split's surviving
          fragment inherited its parent's answer by restriction *)
  s_fragment_reuses_exact : int;
      (** [s_fragment_reuses] split by the seeded entry's tier — which
          restriction path (identity, forest-tree replay, approximate
          identity-with-rewrite) produced the spliced answer. The three
          always sum to the total *)
  s_fragment_reuses_forest : int;
  s_fragment_reuses_approx : int;
}

val cache_stats : cache -> cache_stats

(** Current bindings, most-recently-used first. *)
val cache_entries : cache -> (Fingerprint.t * cache_entry) list

(** Replace the cache's content with [entries] (MRU-first, as
    {!cache_entries} returns them) and, when given, the counter block.
    Entries beyond the cache's capacity evict in LRU order, so restoring
    into a smaller cache keeps the most recent answers. *)
val cache_restore :
  ?stats:cache_stats -> cache -> (Fingerprint.t * cache_entry) list -> unit

(** Solve via shatter-and-plan. Every round with ≥ 1 active component
    routes through the shard pipeline — including the single-component
    case, which gets the whole [budget_ms] and still consults the shard
    cache; the shards that re-solve fan out on [pool] / [domains]
    ({!Par.map_result}, sequential by default; each shard's inner
    portfolio stays sequential) and [budget_ms] splits evenly across
    them. With no active component this is exactly
    [Portfolio.solutions_report ... a], on a tombstoned arena too:
    every solver, like the shard pipeline's proto-shard enumeration,
    fingerprints and materialization, skips dead slots. [only] restricts the participating algorithms as in
    {!Portfolio.solutions_report} (shards classify around missing
    tiers; an unregistered name raises [Invalid_argument]). If any
    shard produces no feasible answer at all, the planner falls back to
    the whole-instance portfolio on [a] rather than return an
    infeasible union; so does a shard task that raises
    outside the solver wrapper, with or without a pool.

    The shard pipeline reads ΔV off [a]'s bitsets alone — the shards
    ({!Arena.materialize}), their fingerprints and the composite
    outcome ({!Side_effect.eval_arena}, from the arena's rows), like
    every solver — so [a] may be an {!Arena.with_requests} re-stamp,
    whose [prov] is never built.

    Active components are enumerated by {!Component_index.active} over
    [index] — the engine passes its live one, maintained across commits
    and sharing [a]'s slots. Without [index], one is built for [a]
    ({!Component_index.build}, one O(‖D‖ + ‖V‖) pass).

    [cache] enables shard memoization; a component's
    {!Component_index.dirty} bit says whether the caller's deltas may
    have touched it since its answer was cached — the engine's live
    index tracks them, and an index built here has every component
    dirty, so the cache only ever stores. A shard is spliced iff it is
    clean and its fingerprint is present. A clean component whose
    {!Component_index.memo} records exactly the round's bad vids is
    looked up under the memo's fingerprint, which is the one
    {!Fingerprint.shard} would compute (its content has not changed
    since, or it would carry a fresh id); any other clean component is
    hashed. The budget splits across the
    shards actually re-solved (a spliced shard consumes no wall-clock),
    so fresh solves in a mostly-cached round get the deadline headroom
    the splices freed. *)
val solve :
  ?exact_threshold:int ->
  ?only:string list ->
  ?domains:int ->
  ?pool:Par.Pool.t ->
  ?budget_ms:float ->
  ?index:Component_index.t ->
  ?cache:cache ->
  Arena.t ->
  report

(** {2 Split-aware fragment seeding}

    [seed_fragments cache ~before ~before_index ~dd ~after ~after_index]
    — called by the engine right after committing a tombstoning deletion
    [dd] ([after = Arena.delete before ~dd _], sharing [before]'s
    slots). For each component of [before] touched
    by [dd] whose {!Component_index.memo} points at a cached entry, if
    the memoized ΔV survived intact inside one non-empty fragment of
    [after], the parent's entry is restricted onto the fragment — all
    three tiers participate. The identity tiers ([Exact_small] /
    [Approximate]) additionally require that the deletion killed no
    view tuple whose witness meets the ΔV's candidate set; the forest
    tier replays killed weight through its recorded tree instead:

    - [Exact_small]: identity — the brute-force tier's result is a
      function of the candidates, the bad view tuples, and the preserved
      views incident to a candidate, all inherited verbatim;
    - [Exact_forest]: the recorded DP tree is replayed through
      {!Decomposition.restrict_forest}, discounting lost preserved
      endpoint weight (the entry's cost drops by the pivot's replayed
      discount) and refusing whenever a surviving node's cut decision
      could flip or the fragment would root at a different pivot;
    - [Approximate]: identity, additionally requiring the fragment's
      √‖V‖ bucket to equal the parent shard's recorded one
      ([e_vtuples]), the fragment to stay outside the forest tier, and a
      winner whose certificate is rewritable: ["primal-dual"],
      ["lowdeg"] (its [Ratio] is rewritten to the fragment's own
      [2√‖V‖]) or ["greedy"]; a "general" winner never seeds, because
      its ratio reads the restricted instance's sizes.

    The restricted entry is re-keyed under the fragment's fingerprint
    (hashed with the memoized ΔV via [Fingerprint.shard ~bad]), marked
    [e_split], and the fragment's memo updated so reuse chains across
    successive splits.

    Affected components are visited by least live sid, so LRU
    insertions land in canonical order. Returns [after_index] with each
    seeded fragment's memo recorded and its dirty bit cleared, so the
    next request splices it without materializing or solving anything.
    A fresh solve of a seeded fragment produces a bit-identical answer
    (lockstep-tested in [test/test_compindex.ml] and
    [test/test_decomp_splice.ml]). *)
val seed_fragments :
  cache ->
  before:Arena.t ->
  before_index:Component_index.t ->
  dd:Relational.Stuple.Set.t ->
  after:Arena.t ->
  after_index:Component_index.t ->
  Component_index.t
