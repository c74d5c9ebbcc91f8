(** A long-lived propagation session (the §V interactive loops: propose
    repairs, apply, re-solve, round after round).

    One {!t} owns a provenance index ({!Deleprop.Provenance}, which
    holds the live database and its materialized views), its compiled
    arena ({!Deleprop.Arena}), the component index
    ({!Deleprop.Component_index}) and a persistent {!Deleprop.Par.Pool}
    — all built once at {!create} and then maintained
    {e incrementally}:

    - {!request} stamps the round's ΔV on the arena's bitsets in one
      pass ([Arena.with_requests] — the (D,Q)-dependent structure is
      shared, only bad/preserved re-stamp, and no re-targeted
      provenance is built: the live index stays ΔV-free) and solves it
      with the shatter-and-plan solver ({!Deleprop.Planner.solve}) on
      the session pool;
    - {!apply} / {!delete} / {!insert} / {!apply_delta} all commit
      through one symmetric transition on a {!Deleprop.Delta.t}:
      deletions {e patch} the index ([Provenance.delete] /
      [Arena.delete]: killed rows tombstone in place, no id moves) and
      insertions patch it too ([Provenance.insert] / [Arena.extend]:
      gained rows resurrect dead slots or splice in by delta
      evaluation) — the index is built exactly once, in {!create}, and
      the component index stays live across both sides
      ([Component_index.delete] splits, [Component_index.insert]
      merges), re-labeling only the components a delta reaches.
      {!stats} counts the patches ([patches], [tuples_inserted]).
      Dead slots accumulate across rounds and the engine compacts
      ({!Deleprop.Arena.compact}) only when the tombstone ratio crosses
      0.5 — amortized O(1) slot movement per round instead of
      O(‖index‖) per delete.

    The session is {e resilient}: rounds run under an optional time
    budget with graceful degradation (see {!Deleprop.Portfolio}), solver
    crashes are isolated into {!plan.failures}, and committed operations
    can be journaled to disk ({!Journal}) so a killed session recovers
    to exactly its last committed state. With a [snapshot] path the
    shard solution cache itself is durable ({!Snapshot}): recovery
    re-warms it and the first post-recovery round splices clean shards
    instead of re-solving the world — and every snapshot failure shape
    (missing, torn, bit-flipped, stale, old version) degrades to a cold
    cache with a typed warning in {!stats}, never a failed recovery.

    The differential property suite ([test/test_engine.ml]) drives
    random delete/insert/solve streams through both this incremental
    path and rebuild-from-scratch and checks the indexes and the
    planner's answers are bit-identical; [test/test_resilience.ml] does
    the same across injected crashes and journal recovery.

    The query set must be key preserving ({!create} enforces it): the
    unique-witness index is what makes incremental deletion exact. *)

type t

(** How {!create}'s recovery left the shard cache. Stamped once per
    session; [Degraded] is the degradation ladder's typed warning — a
    snapshot problem is never an error. *)
type snapshot_status =
  | Cold
      (** no snapshot in play: fresh session, no [snapshot] path, or a
          session recovered without one *)
  | Warm of { entries : int; dropped : int }
      (** the snapshot installed: [entries] cache entries re-warmed,
          [dropped] entries the file promised but lost to damage *)
  | Degraded of Snapshot.warning
      (** recovery wanted the snapshot but fell back to a cold cache *)

val pp_snapshot_status : Format.formatter -> snapshot_status -> unit

type stats = {
  rounds : int;           (** {!request} calls that reached the solvers *)
  applies : int;          (** committed deletions ({!apply} + {!delete}) *)
  tuples_deleted : int;   (** source tuples removed, cumulative *)
  tuples_inserted : int;  (** source tuples added, cumulative *)
  patches : int;          (** commits whose deletions incrementally patched the index *)
  index_retargets : int;  (** {!request} calls, each served by
                              re-stamping the live arena (rejected ones
                              included); reading the index through
                              {!index}, {!partition} or
                              {!component_index} does not count (the
                              historical spellings
                              [index_hits] / [cache_hits] were emitted as
                              JSON aliases for one release — schema
                              version 2 — and are gone as of version 3) *)
  last_solve_ms : float;  (** wall time of the last round (patch + portfolio) *)
  total_solve_ms : float; (** cumulative round wall time *)
  journal_records : int;  (** records appended to the journal this session *)
  recovered_records : int;(** records replayed from the journal at {!create} *)
  components : int;       (** connected components of the live index's
                              incidence graph *)
  shards_solved : int;    (** shards dispatched by the planner, cumulative *)
  shards_exact : int;     (** ... solved by an exact tier (brute / DP) *)
  shards_approx : int;    (** ... solved by the approximation portfolio *)
  shards_cached : int;    (** ... spliced from the shard solution cache
                              (no solver ran; see {!create}'s
                              [shard_cache]) *)
  shards_resolved : int;  (** ... actually re-solved — [shards_cached +
                              shards_resolved = shards_solved] *)
  shard_cache_hits : int; (** the shard cache's lifetime hit counter
                              ({!Deleprop.Planner.cache_stats}), read at
                              {!stats} time; 0 without a cache *)
  fragment_reuses : int;  (** lifetime splices of entries seeded by
                              split-aware fragment restriction
                              ({!Deleprop.Planner.cache_stats}), read at
                              {!stats} time — cache hits that
                              exist only because a split's surviving
                              fragment inherited its parent component's
                              answer; 0 without a cache *)
  fragment_reuses_exact : int;
                          (** {!fragment_reuses} whose seeded entry came
                              through the brute-force identity
                              restriction ([Exact_small] parents) *)
  fragment_reuses_forest : int;
                          (** ... through the recorded-DP-tree replay
                              ([Exact_forest] parents) *)
  fragment_reuses_approx : int;
                          (** ... through the approximate identity
                              restriction with certificate rewrite
                              ([Approximate] parents). The three always
                              sum to [fragment_reuses] *)
  tombstone_ratio : float;(** dead slots / total slots in the live arena,
                              read at {!stats} time — never above 0.5
                              after a commit, 0.0 right after a
                              compaction *)
  compactions : int;      (** index compactions: threshold triggers
                              and {!compact} calls (the
                              compaction a merge-path insert does first
                              is part of that insert and not counted) *)
  snapshot : snapshot_status;
                          (** how recovery left the shard cache: warm
                              from a durable snapshot, cold, or degraded
                              with the typed reason *)
}

(** The typed reporting surface: [Stats.t] is {!stats} itself, plus
    its one printer and the one JSON encoding every front end shares, so
    the CLI's [--json] output and any embedding application serialize
    stats identically. {!Stats.to_json} emits every field above,
    spelling floats with 3 decimals and [snapshot] as a one-object
    summary ([{"state": "cold" | "warm" | "degraded", ...}] with
    [entries] / [dropped] counts when warm and the
    {!Snapshot.warning_label} reason when degraded). *)
module Stats : sig
  type t = stats

  val zero : t
  val pp : Format.formatter -> t -> unit
  val to_json : t -> Deleprop.Report.t
end

(** A solved round: the requests it answered, the ranked feasible
    solutions (cheapest first), and the round's resilience report —
    solvers that timed out or crashed, and whether the answer came from
    the degradation ladder ({!Deleprop.Portfolio.report}) — and the
    shatter: [decomposed] is true when the round solved its ≥ 1 active
    components through the shard pipeline ([solutions] is then the
    single recombined {!Deleprop.Solution.Composite}; otherwise the
    whole-instance portfolio ranking, see
    {!Deleprop.Planner.report.decomposed}), and [shards] records each
    component's classification and winner, naming the component by its
    session-stable id ({!component_index}). *)
type plan = {
  requests : Deleprop.Delta_request.t list;
  solutions : Deleprop.Solution.t list;
  failures : Deleprop.Portfolio.failure list;
  degraded : bool;
  decomposed : bool;
  shards : Deleprop.Planner.shard_decision list;
  shards_cached : int;
      (** how many of [shards] were spliced from the session's shard
          cache rather than re-solved this round *)
}

(** Build the session: evaluates the queries once (shared between the
    provenance index and the view manager), compiles the arena, spawns
    the domain pool. [algorithms] restricts the portfolio to the named
    members of {!Deleprop.Solvers.registered} (as
    {!Deleprop.Portfolio.solutions} [~only]); [exact_threshold] as there;
    [domains] sizes the pool (default
    [Domain.recommended_domain_count ()]; pass [~domains:1] for a
    sequential session with no spawned domain). Raises
    [Invalid_argument] on non-key-preserving queries.

    Every round is solved by the shatter-and-plan solver
    ({!Deleprop.Planner.solve}): the session's live
    {!Deleprop.Component_index} enumerates each round's active
    components off maintained per-component rosters in
    O(‖ΔV‖ + active), and each is solved on its own (exact where small
    or forest-shaped) on the session pool. Key preservation makes the
    recombined answer exact, so a whole-instance portfolio session
    would answer nothing the planner cannot. [plan] (default [true])
    survives only so that existing callers that pass [~plan:true]
    compile; [~plan:false], the deleted whole-instance mode, raises
    [Invalid_argument].

    [budget_ms] arms every round with a wall-clock deadline (overridable
    per {!request}).

    Committed deletes tombstone slots in place
    ({!Deleprop.Arena.delete}), inserts resurrect dead slots when they
    can ({!Deleprop.Arena.can_extend_in_place}), and the engine compacts
    only when {!Deleprop.Arena.tombstone_ratio} exceeds 0.5 — per-commit
    cost proportional to the delta, not the index. Compaction is
    unobservable in solutions, views, fingerprints and recovery
    ([test/test_tombstone.ml] checks every commit against a scratch
    rebuild); only wall-clock and the [tombstone_ratio] /
    [compactions] stats see it.

    [journal] makes committed operations durable in an append-only log
    at that path. With [recover] (default [false]) an existing journal
    is replayed on top of [db] — a torn final record (killed mid-write)
    is truncated away, interior corruption raises {!Journal.Error} —
    and the session continues appending; without it any existing file
    (and snapshot) is discarded. [db] must be the same database the
    journal was recorded against. Replay commits the journal's {e net}
    delta, not its records one by one: key preservation makes the
    index, the views and the canonical partition a function of the
    database alone, so the records — each filtered against the running
    state as a live commit would be — fold into one delta. After
    recovery [patches], [tuples_deleted], [tuples_inserted] and
    [compactions] count the folded deltas (one,
    or two on the fast path below); [applies] counts every [Apply] /
    [Delete] record that deleted something, and [recovered_records]
    every record. [fsync] (default [false]) is the session's one
    {!Durable} policy. Either way the files stay consistent after a
    process crash: every append is flushed before the commit returns and
    every replace lands at one rename. [~fsync:true] also fsyncs each
    journal append, snapshot image and checkpoint rewrite before it
    counts as written, and the directory after each rename and new
    file, so a commit that returned survives a power loss on a file
    system that honours fsync; under [~fsync:false] a power loss may
    cost the latest commits or the warm start. The crash-cut suite
    ([test/test_crashcut.ml]) tests the process-crash model only.
    [segment_bytes] (positive) bounds the
    journal's file size by rotating sealed segments
    ({!Journal.open_writer}).

    [shard_cache] (default 512; [<= 0] disables) bounds the session's
    shard solution cache ({!Deleprop.Planner.cache}): every
    component carries a dirty bit in the live
    {!Deleprop.Component_index}, set on the fresh ids a committed delta
    creates and cleared when a round solves (or splices) the component,
    and {!request} re-solves only the dirty shards, splicing
    memoized answers for the clean ones. After a committed deletion
    splits a memoized component, surviving fragments whose candidate
    neighborhood the delete did not touch inherit the parent's cached
    answer by restriction ({!Deleprop.Planner.seed_fragments}) and stay
    clean. Cached rounds are solution-equivalent to fresh ones whenever
    the session is deterministic (no [budget_ms] expiring mid-solver) —
    the differential suites in [test/test_shardcache.ml] and
    [test/test_compindex.ml] enforce this. A session recovered
    {e without} a snapshot starts with a cold cache and every component dirty, so
    recovery never changes answers.

    [snapshot] (requires [journal] and a shard cache,
    [shard_cache > 0]) makes the shard cache itself durable at that path: the engine writes one
    full, crash-consistent {!Snapshot} image at every {!checkpoint} and
    once [snapshot_every] (default 16; [<= 0] = checkpoint-only)
    records accumulate past the last image (after a fast recovery, the
    installed one), and nothing in between — so the image trails the
    journal by up to [snapshot_every - 1] records. The session keeps the
    encoded entry frames of the last image written or loaded
    ({!Snapshot.frames}), so a full image re-encodes only the entries
    the cache added or replaced since and otherwise costs its I/O.
    With [recover] there are two paths. The {e fast path} runs when the
    image's recorded journal generation still matches the journal on
    disk: the [position]-record prefix is never parsed — the image's
    database baseline applies as one delta — and when the coordinates
    (component count and content digest {!Deleprop.Fingerprint.digest},
    kept current per committed delta) then match, the entries, the
    lifetime counters and the dirty bits install (the dirty bits are
    recorded as canonical labels and translated back onto the replayed
    index's components). The journal tail, folded into its net delta,
    then carries them like one live delta, so the first post-recovery
    round re-solves only the components that were dirty at the image or
    that the tail's net delta reached: a tuple deleted and re-inserted
    inside the tail leaves its component's content, and so its cached
    answer, unchanged and clean. An immediate checkpoint then folds the
    sealed journal segments the prefix lived in away (sealed-segment
    reclamation, via the generation-bumping rewrite so a crash
    mid-reclaim can never orphan the image's recorded position).
    Otherwise recovery replays the whole journal cold, with every
    component dirty. The restored lifetime counters are the image's:
    hits and splices the crashed session made after its last image are
    not counted. A crash between a checkpoint's snapshot rename and its
    journal mark leaves an image whose generation never landed, so it
    recovers cold ({!Snapshot.warning.Stale}), as does an image whose
    baseline frame is damaged ({!Snapshot.warning.Corrupt}). Every
    failure shape degrades per the {!Snapshot} ladder and stamps
    [stats.snapshot]; a snapshot never changes answers, and
    [test/test_rewarm.ml] holds the crash+recover ≡ uninterrupted
    equivalence property.

    A rejected argument — [~plan:false], [snapshot] without [journal] or
    without a shard cache, a non-positive [segment_bytes], an
    [algorithms] list that is empty or names an unregistered algorithm
    (the message names it and the registered ones), [domains] below 1 —
    raises [Invalid_argument] before any file is touched, so
    an existing journal and snapshot stay byte-identical. A [create]
    that raises later (interior journal corruption, a failed write)
    closes the journal writer and shuts the domain pool down first:
    retrying a failed recovery leaks no domain. *)
val create :
  ?weights:Deleprop.Weights.t ->
  ?exact_threshold:int ->
  ?algorithms:string list ->
  ?plan:bool ->
  ?domains:int ->
  ?budget_ms:float ->
  ?journal:string ->
  ?recover:bool ->
  ?shard_cache:int ->
  ?snapshot:string ->
  ?snapshot_every:int ->
  ?fsync:bool ->
  ?segment_bytes:int ->
  Relational.Instance.t ->
  Cq.Query.t list ->
  t

(** Solve one round of typed deletion intents against the current state.
    Nothing is committed — call {!apply} with the returned plan.
    [budget_ms] overrides the session default for this round. A planner
    round re-solves only the components whose dirty bit is set (with a
    shard cache); the planner records each memoized shard's solve memo
    on its component and clears each decided shard's dirty bit —
    functional updates that keep every component id — and the session
    installs the index it returns ({!Deleprop.Planner.report}'s
    [index]) as its live {!Deleprop.Component_index}. Counts one
    [index_retargets]. *)
val request :
  ?budget_ms:float ->
  t -> Deleprop.Delta_request.t list -> (plan, Deleprop.Delta_request.error) result

(** Commit a solution of [plan] — [solution] (default: the plan's
    cheapest) — and return it. [None] when the plan has no feasible
    solution (nothing committed). Tuples already gone from the database
    are skipped; the provenance index and arena are patched, never
    rebuilt. Journaled as an [Apply] record when the session has a
    journal; a commit whose deletions were all gone already changes
    nothing, so it is neither journaled nor counted in [applies]. *)
val apply : ?solution:Deleprop.Solution.t -> t -> plan -> Deleprop.Solution.t option

(** Commit a direct source deletion (same incremental path as {!apply},
    no solver involved). Journaled as a [Delete] record unless every
    tuple was already gone. *)
val delete : t -> Relational.Stuple.Set.t -> unit

(** Insert a source tuple: views maintain incrementally and the
    provenance/arena index {e patches in place} — the gained view tuples
    (and only those) splice into every layer, the component index merges
    the components the new witnesses bridge
    ([Component_index.insert]), and
    [stats.tuples_inserted] counts the tuple. Raises
    {!Relational.Relation.Key_violation} like the underlying instance
    and {!Deleprop.Provenance.Ambiguous_witness} when the insertion
    breaks key preservation; the session state is untouched and nothing
    is journaled then. Journaled as an [Insert] record unless the tuple
    was already present. *)
val insert : t -> Relational.Stuple.t -> unit

(** Commit a symmetric update in one transition: [delta.deletes] first,
    then [delta.inserts], both patching the live index (the same path
    {!apply}, {!delete} and {!insert} route through). Returns the
    subset actually applied — deletes of absent tuples and inserts of
    present ones are skipped (a tuple on both sides is a legal
    delete-then-reinsert). Journaled as a single [Delta] record when
    non-empty; on [Key_violation] / [Ambiguous_witness] nothing commits
    and nothing is journaled. *)
val apply_delta : t -> Deleprop.Delta.t -> Deleprop.Delta.t

(** Compact the live index now: drop tombstoned slots from the arena
    and re-map the component index ({!Deleprop.Arena.compact} /
    {!Deleprop.Component_index.compact} — component ids, dirty bits and
    memos survive). No-op when the index has no tombstones. Counted in
    [stats.compactions]. The engine calls this itself when a commit
    leaves the tombstone ratio above 0.5; exposing it lets an embedding
    application compact at its own quiet points. *)
val compact : t -> unit

(** Compact the journal: atomically rewrite it as the minimal diff
    between the database {!create} was given and the current one — a
    single symmetric [Delta] record (deletes replay before inserts, so
    key updates land cleanly). Recovery cost stops growing with session
    length. No-op for journal-less sessions. The live index keeps its
    tombstones: recovery does not need a compacted layout, since the
    snapshot coordinates are layout-invariant. Sealed journal segments
    of the old generation are superseded and unlinked. With a
    [snapshot] path, a fresh image is written just before the journal
    mark, stamped with the generation the mark is about to create; a
    crash between the two leaves an image whose generation never
    landed, and recovery replays the old journal cold. When that
    snapshot write raises, the journal is left as it was, the session
    keeps appending to it, and the exception propagates. The record is
    the session's (gone, added) baseline against the base database,
    maintained per commit — no pass over the database. *)
val checkpoint : t -> unit

(** The live database: the live index's own ([Provenance.problem]'s
    database), patched by every commit. *)
val db : t -> Relational.Instance.t

(** The live view of a registered query, read off the live index (kept
    consistent by every operation). Raises [Invalid_argument] on an
    unknown name. *)
val view : t -> string -> Relational.Tuple.Set.t

(** The session's live baseline index (ΔV = ∅) — built once in
    {!create}, patched by every commit since; what the differential
    tests compare against scratch construction. The returned arena may
    carry tombstones; [Arena.compact] of it is bit-identical to a
    scratch build. *)
val index : t -> Deleprop.Provenance.t * Deleprop.Arena.t

(** The canonical partition of the live index, exported from its
    component index ({!Deleprop.Component_index.partition}, an
    O(‖D‖ + ‖V‖) pass — for tests and tools, never on the round path):
    bit-identical to [Arena.partition (snd (index t))] (over a tombstoned
    arena that partition labels live slots only; dead slots carry
    [-1]). *)
val partition : t -> Deleprop.Arena.partition

(** The session's live component index ({!Deleprop.Component_index}):
    stable component ids, member rosters, solve memos and dirty bits,
    maintained through every commit. Its ids are stable within the
    session and are what {!plan.shards} report; they are not the
    canonical labels of {!partition}. What the lockstep differential
    tests compare, up to that relabeling, against
    [Component_index.build (snd (index t))]. *)
val component_index : t -> Deleprop.Component_index.t

(** A point-in-time snapshot: the session's counters, with
    [shard_cache_hits], the [fragment_reuses*] family, and
    [tombstone_ratio] read off the live cache and arena at call time. *)
val stats : t -> stats

(** Close the journal (if any) and shut the domain pool down. The engine
    remains usable afterwards (parallel fan-outs degrade to sequential,
    further commits are no longer journaled). *)
val close : t -> unit

(** Line-oriented round scripts for [deleprop batch]:
    {v
    # comments and blank lines are skipped
    solve Q4(John, TKDE, XML); Q4(Tom, TKDE, XML)
    propose Q4(Ann, TODS, XML)
    insert T1(Ann, TODS)
    delete T2(TODS, XML, 30)
    v}
    [solve] takes view facts separated by [;] (grouped into one
    {!Deleprop.Delta_request.t} per view); [propose] is [solve] without
    the commit — the plan is reported, nothing applies (what-if rounds;
    repeated proposals over untouched components hit the shard cache);
    [insert]/[delete] take one source fact in
    {!Relational.Serial.fact_of_string} syntax. *)
module Script : sig
  type op =
    | Solve of Deleprop.Delta_request.t list
    | Propose of Deleprop.Delta_request.t list
    | Insert of Relational.Stuple.t
    | Delete of Relational.Stuple.t

  (** A parsed script line: the op plus where it came from — [lineno]
      is 1-based in the source text, [text] the trimmed line itself
      (what error messages quote). *)
  type line = {
    lineno : int;
    text : string;
    op : op;
  }

  (** One executed script line: [plan] is [Some] exactly for successful
      [Solve] ops (whose cheapest solution was applied) and [Propose]
      ops (nothing applied); [error] is [Some] only under
      [replay ~keep_going:true] for ops that failed. *)
  type round = {
    number : int;
    op : op;
    plan : plan option;
    error : string option;
  }

  val parse : string -> (line list, string) result
  val parse_file : string -> (line list, string) result

  (** Execute the ops in order — [Solve] rounds auto-apply their best
      solution. An op failure reports ["round %d (<line text>): %s"]:
      by default the replay stops there; with [keep_going] the failed
      round is recorded (its [error] set) and the rest of the script
      still runs. *)
  val replay : ?keep_going:bool -> t -> line list -> (round list, string) result
end

(** The session files' byte layer, the session journal and the
    shard-cache snapshot machinery, re-exported ([Engine] is the
    library's interface module). *)
module Durable : module type of Durable

module Journal : module type of Journal

module Snapshot : module type of Snapshot
