(** The one result shape every solving surface speaks.

    {!Portfolio.solutions}, [Engine.request] and the CLI's JSON output
    all produce this record; the per-solver result types
    ([Primal_dual.result], [Lowdeg.result], …) stay as richer internal
    shapes, adapted here at the portfolio boundary. *)

(** What the algorithm can promise about its answer:
    - [Exact] — provably optimal (brute force, pivot-forest DP);
    - [Dual_bound v] — a feasible dual of value [v] lower-bounds the
      optimum (primal-dual, Theorem 3);
    - [Ratio r] — within factor [r] of the optimum (LowDeg's 2√‖V‖,
      the general reduction's Claim-1 bound);
    - [Heuristic] — feasible, no guarantee;
    - [Anytime] — the best feasible answer found before a time budget
      expired: a partial sweep, so the solver's usual ratio is void;
    - [Composite] — the union of independent per-component solutions
      ({!Planner}): [factor] is the max of the shard factors (exact
      shards contribute 1, a LowDeg shard its 2√‖V_c‖, a forest-case
      primal-dual shard its arity bound [l]), [None] when some shard
      carries no multiplicative guarantee. Component independence makes
      the max sound: the optimum decomposes as the sum of per-shard
      optima, and each shard's cost is within its own factor of its
      shard optimum. *)
type certificate =
  | Exact
  | Dual_bound of float
  | Ratio of float
  | Heuristic
  | Anytime
  | Composite of {
      shards : int;
      factor : float option;
    }

type t = {
  algorithm : string;
  deleted : Relational.Stuple.Set.t;    (** ΔD, the proposed source deletion *)
  outcome : Side_effect.outcome;        (** its evaluated side-effect *)
  elapsed_ms : float;                   (** wall-clock of this solver alone *)
  certificate : certificate;
  decomposition : Decomposition.forest_tree list;
      (** the forest DP's recorded trees ({!Dp_tree.result.decomp}),
          what a cached shard answer needs to carry over to a fragment
          of a split component ({!Planner.seed_fragments}); empty for
          every other solver *)
}

val cost : t -> float
val feasible : t -> bool

(** Feasible solutions only, cheapest first. The sort is stable on cost
    alone — ties keep their input (solver-list) order, never broken by
    [elapsed_ms] — so ranking is deterministic run to run. *)
val rank : t list -> t list

val pp : Format.formatter -> t -> unit
val pp_certificate : Format.formatter -> certificate -> unit
