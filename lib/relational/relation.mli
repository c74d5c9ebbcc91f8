(** A finite relation instance: a set of tuples obeying the schema's key.

    The key constraint (no two tuples agree on all key positions, §II.B)
    is enforced at insertion time: inserting a tuple whose key projection
    collides with an existing distinct tuple raises {!Key_violation}. *)

exception Key_violation of string * Tuple.t * Tuple.t
(** [Key_violation (rel, existing, offending)]. *)

exception Arity_mismatch of string * int * int
(** [Arity_mismatch (rel, expected, got)]. *)

type t

val empty : Schema.t -> t
val schema : t -> Schema.t
val name : t -> string

(** [add rel t] inserts [t]; idempotent on an already-present tuple.
    Raises {!Key_violation} / {!Arity_mismatch}. *)
val add : t -> Tuple.t -> t

val of_tuples : Schema.t -> Tuple.t list -> t
val remove : t -> Tuple.t -> t
val mem : t -> Tuple.t -> bool

(** Number of tuples; O(1), maintained by {!add}/{!remove}. *)
val cardinal : t -> int

val is_empty : t -> bool
val tuples : t -> Tuple.t list
val to_set : t -> Tuple.Set.t
val fold : (Tuple.t -> 'a -> 'a) -> t -> 'a -> 'a
val iter : (Tuple.t -> unit) -> t -> unit
val filter : (Tuple.t -> bool) -> t -> t

(** [find_by_key rel key_tuple] returns the unique tuple whose key
    projection equals [key_tuple], if any. This is the lookup the
    key-preserving property makes possible (§II.C). *)
val find_by_key : t -> Tuple.t -> Tuple.t option

(** [column_set rel pos v] — the tuples whose column [pos] holds [v]:
    the per-column secondary index's own set, maintained incrementally
    by {!add}/{!remove}, so the lookup is O(log d) for [d] distinct
    values in the column and copies nothing; iterate it with
    {!Tuple.Set.iter} (ascending). The join ([Cq.Eval]) reads the
    columns an earlier atom or a constant has bound this way. Raises
    [Invalid_argument] on out-of-range positions. *)
val column_set : t -> int -> Value.t -> Tuple.Set.t

(** Number of distinct values in a column — the selectivity statistic the
    join planner uses. O(1), maintained by {!add}/{!remove}. *)
val distinct_in_column : t -> int -> int

val diff : t -> Tuple.Set.t -> t
(** [diff rel s] removes every tuple of [s] from [rel]. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
