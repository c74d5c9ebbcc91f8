(** [DPTreeVSE] (Algorithm 4, §IV.E): exact polynomial dynamic
    programming for forest data dual graphs with pivot tuples.

    The data dual graph is read off the arena's rows: its edges join the
    consecutive sids of each path row, and a view tuple's witness is its
    witness row. Requirements checked at run time: the graph is a
    forest, and each component has a pivot tuple from which every
    witness is a root path. Rooted at the pivot, a view tuple dies iff
    some tuple on the path to its endpoint (deepest witness tuple) is
    deleted — i.e. iff the endpoint lies in a deleted subtree. The DP
    walks the tree bottom-up deciding cut / don't-cut per node:

    - standard objective: a node carrying a bad endpoint with no cut
      above it must be cut; otherwise cut when the preserved weight of
      the subtree is cheaper than the best of the children;
    - balanced objective: surviving bad endpoints are simply priced
      instead of forced.

    Exactness is validated against brute force in experiment E7. The
    tables are arrays over the ranks of the sids the rows hold, so a
    fragment's test costs its rows, not its arena; the recorded trees
    carry {!Decomposition.key} strings, formatted once per node. *)

type objective = Standard | Balanced

type result = {
  deletion : Relational.Stuple.Set.t;
  outcome : Side_effect.outcome;
  pivots : Relational.Stuple.t list;  (** one per component with view tuples *)
  optimum : float;                    (** the DP value = proven optimal cost *)
  decomp : Decomposition.forest_tree list;
      (** the recorded trees, in [pivots] order: per-node parent, depth,
          cut decision, DP value and decision slack — the structural
          record {!Decomposition.restrict_forest} projects onto a
          surviving fragment after a component split *)
}

type error =
  | Not_a_forest
  | No_pivot   (** some component admits no pivot tuple *)

(** [budget] is ticked once per view-tuple endpoint computation and once
    per DP node; on expiry the run unwinds with {!Budget.Expired} — the
    DP is exact-or-nothing, there is no partial answer to salvage. Live
    slots only: a tombstoned session arena is a valid input. *)
val solve_arena :
  ?objective:objective -> ?budget:Budget.t -> Arena.t -> (result, error) Stdlib.result

(** [solve_arena] on [Arena.build prov]. *)
val solve : ?objective:objective -> ?budget:Budget.t -> Provenance.t -> (result, error) Stdlib.result

(** [pivots a vids] — the structural half of {!solve_arena} over the
    live view tuples [vids]: a union-find over the distinct edges of
    their path rows finds a cycle or not, then each component tries the
    sids its witness rows all hold, ascending, as its pivot. The pivot
    sids, one per component in {!result}'s [pivots] order. *)
val pivots : Arena.t -> int array -> (int list, error) Stdlib.result

(** [pivots] over every live view tuple of [a]: the forest tier's
    entry test. [applicable a] is [Result.is_ok (solve_arena a)]. *)
val applicable : Arena.t -> bool

val pp_error : Format.formatter -> error -> unit
