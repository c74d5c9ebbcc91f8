(** The session's live component index: which component each source
    tuple belongs to, every component's member rosters, and one solve
    memo and dirty bit per component — maintained across the whole
    delta lifecycle in time proportional to what each delta reaches.

    {2 Stable ids}

    Components carry {e stable ids}. {!build} numbers them canonically
    (by least live sid, as {!Arena.partition} does); after that a delta
    re-labels only the components it reaches. Key preservation gives
    each view tuple exactly one witness, so components are independent
    and nothing else can change:

    - {!delete} re-runs union-find over the surviving rows of the
      components holding a deleted tuple; each fragment gets a fresh id,
      starts dirty and has no memo;
    - {!insert} merges the components the newly live witness rows
      bridge, with the newly live tuples, into one fresh, dirty id per
      merged group;
    - every other component keeps its id, its record (rosters
      physically equal), its memo and its dirty bit.

    Ids are never reused. The labels live in a copy-on-write array of
    256-entry chunks (O(1) reads; an update copies the chunk directory
    and the chunks it writes), the records in two [Int] maps: by id, and
    by least live sid (the canonical order the exports walk).

    {2 Persistence}

    Every operation returns a new index and leaves its argument
    observably unchanged: recording a memo and clearing a dirty bit are
    functional updates too. So an index taken before a commit stays
    valid, and replaying the commit on it yields the same ids.

    {2 Costs}

    {!delete} and the resurrecting {!insert} cost the members of the
    components they reach (plus a bitset scan for newly live slots on
    insert) and O(log components) map updates — never O(‖D‖ + ‖V‖).
    The merge-path {!insert} and {!compact} re-map member ids in one
    O(‖D‖ + ‖V‖) pass, as the arena operations they follow do. {!active}
    is O(‖ΔV‖ + active·log active).

    {2 Canonical views}

    {!partition}, {!dirty_labels} and {!set_dirty_labels} translate ids
    to canonical labels by ranking the component records by least live
    sid — for tests, benchmarks and the snapshot's dirty coordinate.
    Of these only {!dirty_labels} runs on the commit path (once per
    snapshot write), and it walks the records alone, never the
    O(‖D‖ + ‖V‖) slots. The lockstep suite
    ([test/test_compindex.ml]) checks the maintained index against a
    {!build} from scratch up to that relabeling. *)

type t

(** [build a] — one O(‖D‖ + ‖V‖) pass over {!Arena.partition}: ids are
    the canonical labels, every component is dirty and has no memo. *)
val build : Arena.t -> t

(** Live components. *)
val components : t -> int

(** The stable id of a sid's component; [-1] for a tombstoned sid. *)
val component_of_sid : t -> int -> int

(** [component_of_vid t a vid] — the component of [vid]'s witness (its
    first member's); [-1] when [vid] is dead in [a]. [a] must share the
    index's id space. *)
val component_of_vid : t -> Arena.t -> int -> int

(** Ascending live member ids of component [c] ([Not_found] for an id
    not live in [t]). The arrays are shared — callers must not mutate
    them. A component with no view tuples has an empty [vids_of]. *)

val sids_of : t -> int -> int array
val vids_of : t -> int -> int array

(** [delete t ~before ~dd a'] — the index after committing the deletion
    [dd] ([a' = Arena.delete before ~dd _], sharing [before]'s slots):
    the affected components' fragments under fresh ids; every other
    component untouched. *)
val delete : t -> before:Arena.t -> dd:Relational.Stuple.Set.t -> Arena.t -> t

(** [insert t ~before a'] — the index after an insertion
    ([a' = Arena.extend before ~ins _]). On the resurrect path only the
    merged components change; the rest keep id, record, memo and dirty
    bit. The merge path re-maps every member id (memos drop, ids and
    dirty bits stay) before merging the same way. *)
val insert : t -> before:Arena.t -> Arena.t -> t

(** [compact t ~before] — the index over [Arena.compact before]: ids,
    dirty bits and memos survive (memo fingerprints are
    compaction-invariant, {!Fingerprint}; their ΔV vids remap with the
    rosters). The identity when [before] carries no tombstone. *)
val compact : t -> before:Arena.t -> t

(** [active t a] — the proto-shards of the components holding a bad
    view tuple of [a], ordered by least live sid (the canonical label
    order), each roster ascending, [p_component] the stable id; an
    arena with no bad tuples yields [[||]]. [a] must share the index's
    id space (the session arena, a [with_deletions] re-stamp of it, or
    the arena [t] was built from). *)
val active : t -> Arena.t -> Arena.proto_shard array

(** {2 Solve memos and dirty bits} *)

(** [record_memo t ~component ~fp ~bad] — remember that [component] was
    last solved as the shard fingerprinted [fp] under the ΔV [bad]
    (ascending parent vids), replacing any previous memo. What
    {!Planner.seed_fragments} restricts onto surviving fragments when a
    later delete splits the component, and what {!Planner.solve} looks
    a clean component up under, without rehashing it, when the round's
    ΔV is the memo's. Memos are advisory: dropping one never changes an
    answer, only forfeits a reuse or costs a rehash. *)
val record_memo : t -> component:int -> fp:Fingerprint.t -> bad:int array -> t

(** The component's memo, if no delta has reached it since. *)
val memo : t -> int -> (Fingerprint.t * int array) option

(** Has a delta reached the component since its last planner answer
    (or has it never been solved)? *)
val dirty : t -> int -> bool

(** [clean t c] — clear [c]'s dirty bit. *)
val clean : t -> int -> t

(** {2 Canonical views} *)

(** The canonical partition: bit-identical to {!Arena.partition} of the
    arena the index describes. O(‖D‖ + ‖V‖). *)
val partition : t -> Arena.partition

(** The canonical labels of the dirty components, ascending —
    O(components). *)
val dirty_labels : t -> int list

(** [set_dirty_labels t labels] — exactly the components whose
    canonical label is in [labels] dirty, every other one clean
    (labels out of range are ignored). *)
val set_dirty_labels : t -> int list -> t
