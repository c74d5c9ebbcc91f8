(** Database tuples: immutable vectors of constants. *)

type t

val make : Value.t array -> t

(** [init n f] is the tuple [(f 0, ..., f (n-1))], built in place. *)
val init : int -> (int -> Value.t) -> t

(** [of_list vs] builds a tuple from a value list. *)
val of_list : Value.t list -> t

(** Convenience constructors used heavily in tests and examples. *)
val ints : int list -> t
val strs : string list -> t

val arity : t -> int
val get : t -> int -> Value.t
val to_list : t -> Value.t list
val to_array : t -> Value.t array

(** [project t positions] is the sub-tuple at the given 0-based positions
    (in the order given). Raises [Invalid_argument] on out-of-range. *)
val project : t -> int list -> t

val compare : t -> t -> int
val equal : t -> t -> bool
val hash : t -> int

val pp : Format.formatter -> t -> unit
val to_string : t -> string

module Set : Set.S with type elt = t
module Map : Map.S with type key = t
