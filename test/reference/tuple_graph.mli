(** The data dual graph (§IV.E): an undirected graph whose vertices are
    source tuples, with each view tuple's witness contributing a path.

    The "forest case with pivot tuple" requires: the graph is a forest and
    there is a pivot tuple [t] such that every view tuple's witness is
    exactly the set of tuples on the path from [t] to some tuple. This
    module builds the graph from witness paths, tests forest-ness, roots
    trees, and detects pivots: the oracle the test suites hold
    [Deleprop.Dp_tree.pivots], the test on the arena's rows, to. *)

module S := Relational.Stuple

type t

val empty : t
val add_vertex : t -> S.t -> t
val add_edge : t -> S.t -> S.t -> t

(** Each witness is added as a path: consecutive elements become edges
    (single-tuple witnesses add an isolated vertex). *)
val of_witness_paths : S.t list list -> t

val vertices : t -> S.t list
val neighbours : t -> S.t -> S.t list
val num_vertices : t -> int
val num_edges : t -> int

(** No cycles (multi-edges are collapsed; self-loops make it cyclic). *)
val is_forest : t -> bool

(** A rooting of one connected component. *)
module Rooted : sig
  type graph := t
  type t

  (** [at g root] — BFS rooting of [root]'s component. [None] if the
      component contains a cycle. *)
  val at : graph -> S.t -> t option

  val root : t -> S.t
  val mem : t -> S.t -> bool
  val depth : t -> S.t -> int
  val parent : t -> S.t -> S.t option
  val children : t -> S.t -> S.t list

  (** Tuples on the path from the root to [v], inclusive. *)
  val path_set : t -> S.t -> S.Set.t

  (** Vertices of the component in BFS (increasing-depth) order. *)
  val by_increasing_depth : t -> S.t list
end

(** [find_pivot graph witnesses] — a tuple [t] such that the graph is a
    forest and every witness in [witnesses] equals the tuple set of the
    path from [t] to some vertex. Candidates are tuples common to all
    witnesses, as the pivot lies on every path. Returns the first pivot
    found. *)
val find_pivot : t -> S.Set.t list -> S.t option
