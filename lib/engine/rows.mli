(** The rows file: the base database's interning, kept beside the
    snapshot image so that a warm recovery rebuilds its arena without
    running the join.

    Key preservation makes the session index a function of the join's
    answers (DESIGN.md §9), and the join is the costliest step of a
    recovery. A session with a snapshot path at [S] keeps, at [S ^
    ".rows"], each base answer's body sids ({!Deleprop.Provenance.bodies}),
    keyed by {!Deleprop.Fingerprint.content_key} of the database
    [Engine.create] was given and its queries. The file is a cache: it
    is written with [~fsync:false] whatever the session's policy, a
    failed write is logged by the engine and never raised, and a file
    that fails any check only costs the recovery a join.

    On-disk format, version 1: {!Durable} frames (u32 LE length, u32 LE
    CRC-32, payload). The header frame holds the magic ["DLPROWS1"], the
    version (u32 LE), the key (i64 LE) and the number of query frames
    (u32 LE). Each query frame, in name order, holds the name (u32 LE
    length, then its bytes), the atom count [k] (u32 LE), the answer
    count (u32 LE) and [k] sids (i32 LE) per answer, in body order.

    What {!load} checks is the file: every frame's CRC, the version and
    the key. What it cannot check — that the rows are the database's
    join — is {!Deleprop.Provenance.of_bodies}' and then the snapshot
    image's content digest's (see [Engine.create]). *)

(** Why a recovery did not build its base index from the rows file. *)
type rejection =
  | Missing  (** no rows file *)
  | Version of int  (** written by a format this build does not read *)
  | Key  (** written for another database or other queries *)
  | Checksum  (** a frame fails its CRC, or the file ends inside one *)
  | Invalid_row of string
      (** a frame checks but does not decode, or a body fails
          {!Deleprop.Provenance.of_bodies} *)
  | Digest_mismatch
      (** the rows passed every check, but the arena they built did not
          reach the image's content digest: the engine's check, not
          {!load}'s *)

val pp_rejection : Format.formatter -> rejection -> unit

(** Stable machine-readable tag for the stats JSON: ["missing"],
    ["version"], ["key"], ["checksum"], ["invalid_row"],
    ["digest_mismatch"]. *)
val rejection_label : rejection -> string

(** The rows file beside the snapshot image at this path. *)
val path : string -> string

(** Write the file atomically ({!Durable.replace} under [~fsync:false];
    failpoint site ["rows.write"]). Raises what the write raises. *)
val write : key:Deleprop.Fingerprint.t -> string -> Deleprop.Provenance.bodies -> unit

(** [load ~key path] — the bodies the file holds, when it exists, every
    frame checks, the version is this build's and the key is [key].
    Never raises on file content. *)
val load :
  key:Deleprop.Fingerprint.t -> string -> (Deleprop.Provenance.bodies, rejection) result
