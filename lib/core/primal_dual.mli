(** [PrimeDualVSE] (Algorithm 1, §IV.C): primal-dual l-approximation for
    the forest case, in the style of Garg–Vazirani multicut on trees [25].

    Each source tuple [t] carries capacity = total weight of preserved
    view tuples joined through it (deleting [t] costs at most that).
    Bad view tuples are processed by decreasing depth of their witness's
    shallowest tuple (the paper's [lca]); each raises its dual variable
    until some witness tuple saturates; saturated tuples are deleted; a
    reverse-delete pass keeps the solution minimal (lines 7–10).

    The returned dual value [Σ f_r] is a lower-bound certificate for the
    LP relaxation with per-tuple capacities; Theorem 3's ratio [l]
    (= max query arity) is validated against brute force in experiment
    E4. When the query set is not a forest the algorithm still returns a
    feasible minimal solution, processing bad tuples in witness-size
    order — only the guarantee is void. *)

type result = {
  deletion : Relational.Stuple.Set.t;
  outcome : Side_effect.outcome;
  duals : float Vtuple.Map.t;   (** f_r for each bad view tuple *)
  dual_value : float;           (** Σ f_r *)
  forest_case : bool;           (** did the instance admit the tree order? *)
}

(** [reverse_delete] (default true) controls the pruning pass of lines
    7–10; disabling it is the ablation of experiment E15 — the solution
    stays feasible but keeps every saturated tuple.

    Runs on a freshly compiled {!Arena.t}; see {!solve_arena} to reuse
    one arena across many calls. *)
val solve : ?reverse_delete:bool -> Provenance.t -> result

(** The kernel {!solve} compiles to: Algorithm 1 over a prebuilt arena,
    restricted to the variant Algorithm 2 calls — tuples outside
    [deletable] are never chosen, and preserved view tuples in
    [ignored_preserved] contribute no capacity (they are the pruned wide
    tuples [R'_>]); both are bitsets over arena ids. The LowDeg τ-sweep
    calls this once per threshold on a shared arena. [None] iff some bad
    witness has no deletable tuple (an infeasible sub-instance).

    [budget] is ticked once per bad view tuple and once per
    reverse-delete candidate; on expiry the run unwinds with
    {!Budget.Expired} — the dual raising is not anytime (a partial run
    leaves bad tuples unhit), so there is no partial result to salvage
    and the caller (portfolio, τ-sweep) records the attempt as timed
    out. *)
val solve_arena :
  ?reverse_delete:bool ->
  ?budget:Budget.t ->
  Arena.t ->
  deletable:Setcover.Bitset.t ->
  ignored_preserved:Setcover.Bitset.t ->
  result option
