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
    Bumped on renames/removals; 5 since the engine stats dropped the
    index-build count (always 1) and the patched-insert count (always
    [tuples_inserted]); 4 dropped the solution objects' [decomposition]
    summary, 3 the deprecated [index_hits] / [cache_hits] stats aliases,
    and 2 was the unified stats encoding. *)
val schema_version : int

(** Compact JSON, no whitespace. A [Float] prints as
    {!float_to_string} does. *)
val to_string : t -> string

(** A decimal that reads back as the same float: an integer keeps one
    decimal place ([5.0]); anything else prints with 15 significant
    digits when they read back and with 17 otherwise. The problem-file
    printer writes weights with it too ({!Problem_file.to_string}). *)
val float_to_string : float -> string

(** JSON string escaping (the body, without the surrounding quotes). *)
val escape : string -> string

(** {2 Shared encoders} *)

(** A solution object: algorithm, deleted facts, feasible, cost,
    balanced_cost, the side-effect and residual-bad counts, elapsed_ms
    and the certificate ([kind], plus [value] and [shards] where the
    certificate carries them). *)
val solution : Solution.t -> t
val failure : Portfolio.failure -> t
val shard_decision : Planner.shard_decision -> t

(** [versioned fields] — an [Obj] with ["schema_version"] prepended. *)
val versioned : (string * t) list -> t
