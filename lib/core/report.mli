(** Shared JSON encoding for machine-readable reports.

    Every front end (CLI subcommands, the engine's stats surface)
    assembles values of {!t} and serializes with {!to_string} — field
    spellings, escaping, and the schema stamp live in one place instead
    of per-subcommand string builders. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list
  | Raw of string  (** pre-encoded JSON, spliced verbatim *)

(** The report schema version, stamped on top-level solve/batch objects.
    Bumped on renames/removals; 4 since solution objects dropped their
    [decomposition] summary (3 dropped the deprecated [index_hits] /
    [cache_hits] stats aliases, 2 was the unified stats encoding). *)
val schema_version : int

val to_string : t -> string

(** JSON string escaping (the body, without the surrounding quotes). *)
val escape : string -> string

(** {2 Shared encoders} *)

val solution : Solution.t -> t
val failure : Portfolio.failure -> t
val shard_decision : Planner.shard_decision -> t

(** [versioned fields] — an [Obj] with ["schema_version"] prepended. *)
val versioned : (string * t) list -> t
