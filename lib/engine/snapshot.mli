(** Crash-consistent shard-cache snapshots: the durable image that lets
    a recovered session start {e warm}.

    A snapshot is one full image at one journal position. It captures
    the plain-data state of the engine's shard solution cache
    ({!Deleprop.Planner.cache_entries} / [cache_stats]) together with
    the coordinates that tie it to that moment of one journal: the
    journal [position] (how many records preceded the write) and
    [generation] (which rewrite lineage those records belong to), the
    session's content digest, the number of live components, the
    canonical labels of the components dirty at that moment, and the
    session database expressed as a [baseline] delta against the base.
    Recovery takes one of two paths (see [Engine.create ~recover]): when
    the journal's generation matches, it applies the baseline as one
    delta in place of the [position]-record prefix, checks the
    coordinates, installs the entries and dirty bits, and folds the
    journal tail into its net delta; otherwise it replays the whole
    journal cold. The image is written at every checkpoint and every
    [snapshot_every] journal records, never in between, so it can trail
    the journal by up to [snapshot_every - 1] records; the fast path
    replays those as its tail.

    On-disk format, version 6: the magic ["DLPSNAP1"] followed by
    {!Durable} frames (u32 LE length, u32 LE CRC-32, payload), the
    journal's framing — one header payload, one baseline payload, and one
    payload per cache entry (most-recently-used first, each carrying the
    shard's ‖V‖ and the forest DP's recorded
    {!Deleprop.Decomposition.forest_tree}s, empty for every other
    winner). Floats are serialized as the 16 hex digits of their
    IEEE-754 bits, so a restored cache is bit-identical to the written
    one (costs, certificates, tree values and slacks).

    {2 Degradation ladder}

    A snapshot is an optimization, never a correctness input, and no
    failure shape aborts a recovery:
    - missing file → {!warning.Missing}, cold cache;
    - unreadable header, bad magic, or a bit flip in the header frame →
      {!warning.Corrupt}, whole snapshot dropped, cold cache;
    - a bit flip or tear in the baseline frame → {!warning.Corrupt}: an
      image without its baseline cannot install, so the session
      recovers cold;
    - a version this build doesn't read (v1 images from before the
      baseline/generation coordinates existed, v2 images from before
      the content-digest coordinate {!Deleprop.Fingerprint.digest}, v3
      images that may carry appended delta groups, v4 images whose
      entries and counters carry the parent-√‖V‖ threshold, bucket and
      eviction fields, v5 images whose entries carry witness-group and
      contribution parts) → {!warning.Version_mismatch}, cold cache;
    - a bit flip or torn tail {e inside the entry region} → only the
      damaged entries drop (the [dropped] count reports how many), the
      rest re-warm;
    - an image the fast path does not install — its generation no
      longer matches the journal's (a crash between a checkpoint's
      snapshot rename and its journal mark), the journal is shorter
      than its position, or its coordinates don't match (the engine's
      check, not {!load}'s) → {!warning.Stale}, cold cache. *)

type t = {
  position : int;
      (** journal records preceding this snapshot — the prefix the
          [baseline] stands in for at recovery *)
  generation : int;
      (** the journal generation those [position] records belong to.
          Within a generation the record sequence is append-only (only
          {!Journal.rewrite} bumps it), so a generation match proves the
          current journal's first [position] records are the ones this
          snapshot summarizes — the soundness basis for skipping them *)
  arena_fp : Deleprop.Fingerprint.t;
      (** {!Deleprop.Fingerprint.digest} of the session's provenance
          index at the write — the per-delta content digest the engine
          keeps current, tombstone/compaction-invariant. Images stamped
          with the older {!Deleprop.Fingerprint.arena} stream never
          match it, so they recover cold once, as {!warning.Stale} *)
  components : int;  (** live components at the write *)
  dirty : int list;
      (** components whose cached answers the deltas since their last
          solve may have invalidated, as canonical labels ({!Deleprop.Arena.partition}
          numbering — the engine's component ids are session-stable, so
          it translates them at every write and back at install),
          ascending *)
  stats : Deleprop.Planner.cache_stats;
      (** lifetime cache counters at the write. A recovered session
          restores these, so it reports the image's counters: hits and
          splices the crashed session made after the write are not
          counted *)
  baseline : Relational.Stuple.Set.t * Relational.Stuple.Set.t;
      (** the live database at the write as (gone, added) fact sets
          against the session's base database — applying it to the base
          reproduces the state replaying the first [position] records
          would *)
  entries : (Deleprop.Fingerprint.t * Deleprop.Planner.cache_entry) list;
      (** cache bindings, most-recently-used first *)
}

(** Why a snapshot did not (fully) re-warm — surfaced as a typed warning
    in [Engine.Stats], never as an error. *)
type warning =
  | Missing             (** no snapshot file on disk *)
  | Version_mismatch of int  (** written by a format this build doesn't read *)
  | Corrupt of string
      (** header or baseline unreadable: bad magic, torn frame, bit flip *)
  | Stale
      (** intact, but the fast path did not install it (generation or
          coordinates don't match the journal) *)

val pp_warning : Format.formatter -> warning -> unit

(** Stable machine-readable tag for the stats JSON: ["missing"],
    ["version_mismatch"], ["corrupt"], ["stale"]. *)
val warning_label : warning -> string

(** A memo of encoded entry frames, owned by one writer (the engine
    session keeps one), so that a full image re-encodes only the entries
    that changed since the previous image.

    It maps a fingerprint to the entry record a frame was encoded from
    (or decoded into) and that whole frame: length, CRC-32 and payload.
    A frame is valid for the {e physically same} record ([==]) under the
    same fingerprint. Cache entries are immutable, so such a record
    would encode to the same bytes. A record the cache replaced under an
    unchanged fingerprint is a new allocation, so it re-encodes: for
    example a shard that a delete dirtied and a re-insert of the same
    tuple restored, which re-solves under its old fingerprint. The memo
    holds one image: after a {!write} exactly the frames of the image
    just written, after a successful {!load} exactly those of the
    entries it decoded. Either way a write with the memo produces the
    same bytes as one without it: a loaded frame is the file's own
    CRC-verified bytes, which this encoder wrote and re-encodes
    identically from the decoded record. *)
type frames

(** An empty memo. *)
val frames : unit -> frames

(** Atomically write [t] to [path] as one full image
    ({!Durable.replace} under [fsync], default [true]; failpoint site
    ["snapshot.write"]). With [frames], every entry the memo holds a
    frame for reuses it and only new or replaced entries are encoded;
    the memo then holds exactly this image's frames (also when a
    failpoint interrupts the write — they are encodings, not a record
    of what is on disk). Without it every entry is encoded. *)
val write : ?frames:frames -> ?fsync:bool -> string -> t -> unit

(** [advance_baseline (gone, added) ~deletes ~inserts] — the baseline
    after one committed delta, deletes first: what the engine uses to
    keep a (gone, added) pair against the base database current, per
    commit and per record when recovery folds a journal into its net
    delta. The delta must already be filtered against the state the
    pair describes — [deletes] present, [inserts] absent or also in
    [deletes] — as the engine's commits filter it. *)
val advance_baseline :
  Relational.Stuple.Set.t * Relational.Stuple.Set.t ->
  deletes:Relational.Stuple.Set.t ->
  inserts:Relational.Stuple.Set.t ->
  Relational.Stuple.Set.t * Relational.Stuple.Set.t

(** [load path] is [Ok (t, dropped)] — [t.entries] holding the entries
    that survived verbatim, [dropped] how many the header promised but
    did not decode cleanly — or [Error w] when there is no file, or its
    header or baseline is unreadable. Never raises on file content. [Error Stale]
    is never produced here: staleness is the engine's install-time
    check. On [Ok], [frames] is reseeded with the verified frames of
    exactly the loaded entries, bound to the records in [t.entries], so
    an image of the installed cache re-encodes nothing; on [Error] it is
    left as it was. *)
val load : ?frames:frames -> string -> (t * int, warning) result

(** Delete the snapshot at [path], if any. *)
val remove : string -> unit
