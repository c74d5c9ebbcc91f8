(** Durable session journal: an append-only log of the committed
    operations of one engine session, replayable against the database
    the session was created with.

    On disk a segment is the magic ["DLPJRNL1"] followed by one
    {!Durable.frame} per record ([u32 LE length | u32 LE CRC-32 |
    payload]); every write goes through {!Durable}. A payload is the record tag on its own line ([A]pply / [D]elete /
    [I]nsert / [U]pdate) followed by one source fact per line in
    {!Relational.Serial.fact_of_string} syntax:
    {v
    A
    T1(john, tkde)
    T2(tkde, xml, 30)
    v}
    An update ({!record.Delta}) record carries signed facts, deleted
    tuples (prefix [-]) before inserted ones (prefix [+]) — the order
    the engine replays them in:
    {v
    U
    -T2(tkde, xml, 30)
    +T1(ann, tods)
    v}

    {2 Segments and generations}

    A journal is one {e active} file at [path] plus zero or more
    {e sealed} segments [path.seg-<gen>-<seq>]. With [segment_bytes] set,
    {!append} seals the active file by renaming it aside once it
    outgrows the bound and starts a fresh one — bounding every file a
    crash can tear while keeping the full record sequence replayable.
    Each segment a rotating writer creates opens with a framed
    generation marker ([G] payload, never surfaced as a record);
    {!rewrite} writes its replacement with the generation {e bumped}, so
    sealed segments of older generations are provably stale and ignored
    by {!load} even if a crash struck before they were unlinked — the
    multi-file journal commits at a single rename, exactly like the
    single-file one. Journals written before rotation existed carry no
    marker and read as generation 0 with no sealed segments.

    {2 Failure shapes}

    Every append is flushed before returning (and fsynced under
    [~fsync]); rotation only follows a completed append, so a crash can
    tear at most the final record {e of the active file}, or the header
    a fresh active file starts with. {!load} distinguishes the failure
    shapes: an incomplete or checksum-failing final record there is a
    torn write (dropped, and truncated away when [repair] is set), and
    an active file of 1–7 bytes that begin the magic holds no records
    (with [repair] it is truncated to empty, and the next writer heads
    it at the current generation). The same shapes inside a sealed
    segment, a checksum failure with intact records after it, or any
    other file that does not start with the magic are real corruption
    and surface as the typed {!error}. *)

type record =
  | Apply of Relational.Stuple.Set.t
      (** a solver-chosen deletion committed by [Engine.apply] *)
  | Delete of Relational.Stuple.Set.t
      (** a direct deletion ([Engine.delete]) *)
  | Insert of Relational.Stuple.t
  | Delta of {
      deletes : Relational.Stuple.Set.t;
      inserts : Relational.Stuple.Set.t;
    }
      (** a symmetric update ([Engine.apply_delta]; also what
          [Engine.checkpoint] compacts a whole session to) — replayed
          deletes first, so a key update lands cleanly *)

type error =
  | Bad_magic of string        (** not a journal (path in payload) *)
  | Corrupt of { index : int; reason : string }
      (** record [index] (counted across segments, markers excluded)
          failed its checksum or didn't decode *)

exception Error of error

val pp_error : Format.formatter -> error -> unit

(** {1 Reading} *)

(** Replayable records of the journal at [path] — current-generation
    sealed segments in sequence order, then the active file — in append
    order: the [tail] of {!load_from} at position 0, which parses every
    segment. A torn final record of the active file is dropped; with
    [repair] (default [false]) it is also truncated off so subsequent
    appends start clean. Any other damage fails the load with the typed
    {!error}. A missing file with no sealed segments is an empty
    journal. *)
val load : ?repair:bool -> string -> (record list, error) result

(** The generation the journal at [path] is currently on: the active
    file's marker, else the newest sealed segment's, else 0. Within one
    generation the record sequence is append-only — only {!rewrite}
    starts a new one — so a caller that recorded [(generation, position)]
    and finds the generation unchanged knows the journal's first
    [position] records are still exactly the ones it summarized. *)
val current_gen : string -> int

(** What {!load_from} recovers: the records {e after} a snapshot-covered
    prefix, plus the coordinates to finish the reclamation. *)
type tail = {
  tail : record list;  (** records with global index ≥ [position] *)
  total : int;         (** record count of the whole journal *)
  covered : string list;
      (** sealed segments lying entirely inside the skipped prefix —
          safe to delete once the caller has committed to the snapshot *)
}

(** [load_from ~position path] — the journal's records from global index
    [position] on, {e without} parsing the prefix: when [position > 0],
    sealed segments that lie entirely inside the first [position]
    records are skipped after a structural skim (frame hops only, no
    checksums — sound because the caller replays a snapshot baseline in
    their stead, never the records themselves) and reported in
    [covered] for reclamation. Every other segment parses, the
    partially covered boundary segment and the active file included,
    with the torn-tail handling {!load} describes, and structural
    damage in any of them is the typed error. Callers must verify
    [total ≥ position] (and the generation) before trusting the tail. *)
val load_from : ?repair:bool -> position:int -> string -> (tail, error) result

(** {1 Writing} *)

type writer

(** Open [path] for appending, creating it (magic header + generation
    marker) when missing or empty; an existing journal's generation and
    next sequence number are adopted from disk. [fsync] (default
    [false]) is the {!Durable} policy for every write of this writer:
    appends, seals and new active files. [segment_bytes] enables
    rotation: once the active file holds that many bytes, the append
    that crossed the bound seals it (must be positive; the bound is a
    low-water mark — a segment always holds the whole record that
    crossed it, and a reopened writer counts the bytes the file already
    held, so the bound holds across recoveries). The caller is responsible for having
    {!load}ed [~repair:true] first — appending after a torn record
    corrupts the log. *)
val open_writer : ?fsync:bool -> ?segment_bytes:int -> string -> writer

(** Append one record ({!Durable.append}, failpoint site
    ["journal.append"]), then rotate if the segment bound is crossed. *)
val append : writer -> record -> unit

val close_writer : writer -> unit

(** The generation [w] is appending to — what a snapshot written against
    this journal must record ({!current_gen} of a path the writer has
    open agrees with this). *)
val generation : writer -> int

(** Atomically replace the journal at [path] with exactly [records],
    carrying the {e next} generation ({!Durable.replace} under [fsync],
    default [true]; failpoint site ["journal.rewrite"]), then unlink the
    now-stale sealed segments (best-effort — the generation bump makes
    them invisible to {!load} regardless). The engine's checkpoint
    compacts a long log into a single {!record.Delta} this way. *)
val rewrite : ?fsync:bool -> string -> record list -> unit

(** Delete the journal at [path]: the active file and every sealed
    segment, any generation. Missing files are fine. *)
val remove : string -> unit
