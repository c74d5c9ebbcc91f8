(** Crash-consistent shard-cache snapshots: the durable image that lets
    a recovered session start {e warm}.

    A snapshot captures the plain-data state of the engine's shard
    solution cache ({!Deleprop.Planner.cache_entries} /
    [cache_stats]) together with the coordinates that tie it to one
    moment of one journal: the journal [position] (how many records
    preceded the write) and [generation] (which rewrite lineage those
    records belong to), the session's content digest, the number of
    live components, the canonical labels of the components dirty at
    that moment, and the
    session database expressed as a [baseline] delta against the base.
    Recovery replays the journal as its net delta and — when the stored
    coordinates match the replayed state — installs the entries and
    dirty bits, so the first post-recovery round splices every clean
    shard the uninterrupted session would have (and any whose content a
    cancelling journal tail left unchanged). When the baseline is
    present and the journal's generation matches, the engine skips
    replaying the [position]-record prefix entirely (applying the
    baseline as one delta instead) and reclaims the sealed segments that
    prefix lived in — see [Engine.create ~recover].

    On-disk format, version 3: the magic ["DLPSNAP1"] followed by CRC-32
    framed payloads in the journal's framing (u32 LE length, u32 LE
    CRC-32, payload) — one header payload, an optional baseline payload,
    one payload per cache entry (most-recently-used first, each carrying
    the entry's recorded {!Deleprop.Decomposition.t}), then any number
    of incremental {e delta groups} appended by {!append} between full
    images. Floats are serialized as the 16 hex digits of their IEEE-754
    bits, so a restored cache is bit-identical to the written one
    (costs, certificates, thresholds, decompositions).

    {2 Degradation ladder}

    A snapshot is an optimization, never a correctness input, and no
    failure shape aborts a recovery:
    - missing file → {!warning.Missing}, cold cache;
    - unreadable header, bad magic, or a bit flip in the header frame →
      {!warning.Corrupt}, whole snapshot dropped, cold cache;
    - a version this build doesn't read (v1 images from before the
      baseline/generation coordinates existed, v2 images from before
      the content-digest coordinate {!Deleprop.Fingerprint.digest}) →
      {!warning.Version_mismatch}, cold cache;
    - a bit flip or torn tail {e inside the entry region} → only the
      damaged entries drop (the [dropped] count reports how many), the
      rest re-warm;
    - a damaged baseline frame → the baseline degrades to [None] (the
      engine falls back to full journal replay; counted in [dropped]),
      the entries behind it still re-warm when delimitable;
    - coordinates that don't match the journal replay (the engine's
      check, not {!load}'s) → {!warning.Stale}, cold cache. *)

type t = {
  position : int;
      (** journal records preceding this snapshot — recovery installs
          the cache after replaying exactly this many *)
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
      (** lifetime cache counters, restored so recovered sessions report
          the same hit/miss history *)
  baseline : (Relational.Stuple.Set.t * Relational.Stuple.Set.t) option;
      (** the live database at the write as (gone, added) fact sets
          against the session's base database — applying it to the base
          reproduces the state replaying the first [position] records
          would. [None] only when the writer had no baseline or the
          frame was damaged *)
  entries : (Deleprop.Fingerprint.t * Deleprop.Planner.cache_entry) list;
      (** cache bindings, most-recently-used first *)
}

(** One incremental append between full images ({!append}): the
    refreshed coordinates and counter block, the cache changes since the
    previous frame, and the round's database delta. {!load} folds the
    clean prefix of appended deltas over the base image, so the returned
    {!t} is what a full write at the last clean delta's moment would
    have produced. *)
type delta = {
  d_position : int;        (** journal position after the round *)
  d_generation : int;
  d_arena_fp : Deleprop.Fingerprint.t;
  d_components : int;
  d_dirty : int list;
  d_stats : Deleprop.Planner.cache_stats;
  d_removed : Deleprop.Fingerprint.t list;
      (** bindings gone since the previous frame (LRU evictions, bucket
          sweeps, clears) *)
  d_order : Deleprop.Fingerprint.t list;
      (** the {e full} MRU-first order after the round — authoritative:
          folding reorders the surviving bindings by it *)
  d_deletes : Relational.Stuple.Set.t;
      (** the round's committed deletes (as journalled) *)
  d_inserts : Relational.Stuple.Set.t;
      (** the round's committed inserts (as journalled) *)
  d_upserts : (Deleprop.Fingerprint.t * Deleprop.Planner.cache_entry) list;
      (** bindings new or changed since the previous frame *)
}

(** Why a snapshot did not (fully) re-warm — surfaced as a typed warning
    in [Engine.Stats], never as an error. *)
type warning =
  | Missing             (** no snapshot file on disk *)
  | Version_mismatch of int  (** written by a format this build doesn't read *)
  | Corrupt of string   (** header unreadable: bad magic, torn frame, bit flip *)
  | Stale
      (** intact, but its coordinates don't match the journal replay
          (e.g. the journal advanced past it before the crash) *)

val pp_warning : Format.formatter -> warning -> unit

(** Stable machine-readable tag for the stats JSON: ["missing"],
    ["version_mismatch"], ["corrupt"], ["stale"]. *)
val warning_label : warning -> string

(** Atomically write [t] to [path]: full image to [path ^ ".tmp"],
    flush, fsync, rename — a crash leaves either the previous snapshot
    or the new one, never a blend. Crosses three failpoints:
    ["snapshot.write"] ([Crash_after_bytes n] emits [n] bytes of the
    temp image then raises, the rename happening iff the allowance
    covered the whole image), ["snapshot.corrupt"] ([Corrupt_byte n]
    flips one bit of the committed file — silent at-rest damage for the
    degradation tests), and ["snapshot.rename"] (hit after the rename —
    arm with [raise] to simulate dying between the snapshot commit and
    the checkpoint's journal mark). *)
val write : string -> t -> unit

(** Append one delta group (a "D" frame plus the upserted entry frames)
    to the committed image at [path]. Appends are not atomic: a crash
    mid-append leaves a torn group, which {!load} ignores along with
    everything after it — the base image and every previously appended
    clean group still load, and the journal replay covers the dropped
    freshness. [fsync] (default false) forces the group to disk.
    Crosses the ["snapshot.append"] failpoint ([Crash_after_bytes n]
    emits [n] bytes of the group, then raises). *)
val append : ?fsync:bool -> string -> delta -> unit

(** [advance_baseline (gone, added) ~deletes ~inserts] — the baseline
    after one committed delta, deletes first: what the engine (per
    commit, and per record when recovery folds a journal into its net
    delta) and {!load} (per folded delta group) use to keep a
    (gone, added) pair against the base database current. The delta
    must already be filtered against the state the pair describes —
    [deletes] present, [inserts] absent or also in [deletes] — as the
    engine's commits filter it. *)
val advance_baseline :
  Relational.Stuple.Set.t * Relational.Stuple.Set.t ->
  deletes:Relational.Stuple.Set.t ->
  inserts:Relational.Stuple.Set.t ->
  Relational.Stuple.Set.t * Relational.Stuple.Set.t

(** [load path] is [Ok (t, dropped)] — [t.entries] holding the entries
    that survived verbatim, [dropped] how many the header promised but
    did not decode cleanly — or [Error w] when nothing is salvageable.
    Never raises on file content. [Error Stale] is never produced here:
    staleness is the engine's replay-time check. *)
val load : string -> (t * int, warning) result

(** Delete the snapshot at [path], if any. *)
val remove : string -> unit
