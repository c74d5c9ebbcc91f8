(** Source tuples: a tuple tagged with the relation it lives in.

    Deletion-propagation solutions [ΔD] are sets of source tuples; tagging
    with the relation name disambiguates equal tuples in different
    relations. *)

type t = { rel : string; tuple : Tuple.t }

val make : string -> Tuple.t -> t
val compare : t -> t -> int
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

(** [rel(v1, v2, ...)]: the relation name, then {!Tuple.to_string}.
    {!pp} prints the same bytes. *)
val to_string : t -> string

module Set : Set.S with type elt = t
module Map : Map.S with type key = t

(** Hash tables keyed by tuple content, hashed through {!Tuple.hash}
    and the relation name: the arena's interning table and the exact
    solvers' per-tuple tables. A lookup hashes the values instead of
    formatting a key string. *)
module Tbl : Hashtbl.S with type key = t
