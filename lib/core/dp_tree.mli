(** [DPTreeVSE] (Algorithm 4, §IV.E): exact polynomial dynamic
    programming for forest data dual graphs with pivot tuples.

    Requirements checked at run time: the witness paths of all view
    tuples form a forest at the tuple level, and each component has a
    pivot tuple from which every witness is a root path. Rooted at the
    pivot, a view tuple dies iff some tuple on the path to its endpoint
    (deepest witness tuple) is deleted — i.e. iff the endpoint lies in a
    deleted subtree. The DP walks the tree bottom-up deciding cut /
    don't-cut per node:

    - standard objective: a node carrying a bad endpoint with no cut
      above it must be cut; otherwise cut when the preserved weight of
      the subtree is cheaper than the best of the children;
    - balanced objective: surviving bad endpoints are simply priced
      instead of forced.

    Exactness is validated against brute force in experiment E7. The
    per-node tables are keyed by the tuple itself
    ({!Relational.Stuple.Tbl}); the recorded trees carry
    {!Decomposition.key} strings, formatted once per node. *)

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
    DP is exact-or-nothing, there is no partial answer to salvage. *)
val solve :
  ?objective:objective -> ?budget:Budget.t -> Provenance.t ->
  (result, error) Stdlib.result

(** Does the instance satisfy the structural requirement? The
    structural half of {!solve} alone: the forest test and a pivot for
    every graph component holding view tuples — no DP, no
    {!Side_effect.eval}, no recorded tree. [applicable p] is
    [Result.is_ok (solve p)]. *)
val applicable : Provenance.t -> bool

val pp_error : Format.formatter -> error -> unit
