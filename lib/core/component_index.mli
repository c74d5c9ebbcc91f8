(** First-class live component index: the partition plus per-component
    member rosters, maintained incrementally across the whole delta
    lifecycle.

    {!Arena.partition} answers "which component does this slot belong
    to?" in O(1), but enumerating a component's {e members} — what every
    planner round needs to build its proto-shards — would mean sweeping
    the full [comp_of_vid]/[comp_of_sid] arrays, an O(‖D‖ + ‖V‖) term in
    otherwise component-local rounds. This module owns both: the
    canonical partition {e and} ascending member rosters per component,
    patched by the same transitions the partition itself uses — deletes
    re-roster only the affected components' fragments ({!delete}
    delegates the labels to {!Arena.partition_delete}), inserts
    re-roster only the merged components ({!insert} /
    {!Arena.partition_insert}), and compaction remaps member ids without
    a global rebuild ({!compact}). {!active} is then an
    O(‖ΔV‖ + active·log active) lookup, and the only way the planner
    enumerates active components.

    The index additionally carries one {e solve memo} per component —
    the fingerprint and ΔV of the component's last planner answer —
    which is what the split-aware cache reuse in {!Planner.seed_fragments}
    restricts onto surviving fragments. Memos are advisory: dropping one
    never changes an answer, only forfeits a reuse.

    Lockstep differential tests ([test/test_compindex.ml]) drive random
    mixed delta streams (splits, merges, resurrections, compactions)
    through this index and check the partitions, rosters and {!active}
    outputs are bit-identical to a {!build} from scratch. *)

type t

(** The canonical partition the index maintains — exactly what
    [Arena.partition] would compute from the same arena (bit-identical
    labels; the lockstep suite enforces it). *)
val partition : t -> Arena.partition

(** [of_partition p] — bucket [p]'s members into rosters (one
    O(‖D‖ + ‖V‖) pass; the only full sweep the index ever does). *)
val of_partition : Arena.partition -> t

(** [build a] = [of_partition (Arena.partition a)]. *)
val build : Arena.t -> t

(** Ascending live member ids of component [c]. The returned arrays are
    owned by the index — callers must not mutate them. A component with
    no view tuples has an empty [vids_of]. *)

val sids_of : t -> int -> int array
val vids_of : t -> int -> int array

(** [delete t ~before ~dd a'] — the index after committing the deletion
    [dd] ([a' = Arena.delete before ~dd _], sharing [before]'s slots;
    same contract as {!Arena.partition_delete}). Only the affected
    components re-roster (their fragments re-bucket, and their memos
    drop — {!Planner.seed_fragments} may re-seed the untouched
    fragment); every other component shares its roster and memo with
    [t]. *)
val delete : t -> before:Arena.t -> dd:Relational.Stuple.Set.t -> Arena.t -> t

(** [insert t ~before a'] — the index after an insertion
    ([a' = Arena.extend before ~ins _]; same contract as
    {!Arena.partition_insert}). On the resurrect path only components
    that merged or gained a member re-roster (memos drop); the rest
    share. The merge path re-buckets from scratch (ids moved). *)
val insert : t -> before:Arena.t -> Arena.t -> t

(** [compact t ~before] — the index over [Arena.compact before]: labels
    survive ({!Arena.compact_partition}), roster ids remap to the
    compacted arena's, and memos survive too — their fingerprints are
    compaction-invariant ({!Fingerprint}) and their ΔV vids remap with
    the rosters. *)
val compact : t -> before:Arena.t -> t

(** [active t a] — the proto-shards of the components holding a bad
    view tuple of [a], ascending by component, each roster ascending;
    components with nothing to solve are skipped, and an arena with no
    bad tuples yields [[||]]. O(‖ΔV‖ + active·log active). [a] must
    share the index's physical id space (the session arena, a
    [with_deletions] re-stamp of it, or the arena [t] was built from). *)
val active : t -> Arena.t -> Arena.proto_shard array

(** {2 Solve memos (split-aware reuse)} *)

(** [record_memo t ~component ~fp ~bad] — remember that [component] was
    last solved as the shard fingerprinted [fp] under the ΔV [bad]
    (ascending parent vids). Overwrites any previous memo. *)
val record_memo : t -> component:int -> fp:Fingerprint.t -> bad:int array -> unit

(** The component's memo, if its roster has not changed since it was
    recorded (re-rostering drops memos). *)
val memo : t -> int -> (Fingerprint.t * int array) option
