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

(** {!solve} over a prebuilt {!Arena.t}: every tuple deletable and
    every preserved view tuple counted in the capacities. A LowDeg
    threshold does not call this: it runs {!capacities} and
    {!deletion_ids} restricted to its instance.

    [budget] is ticked once per bad view tuple and once per
    reverse-delete candidate; on expiry the run unwinds with
    {!Budget.Expired} — the dual raising is not anytime (a partial run
    leaves bad tuples unhit), so there is no partial result to salvage
    and the caller records the attempt as timed out (the portfolio; a
    LowDeg sweep drops the threshold, which {!deletion_ids} ticks the
    same way). *)
val solve_arena : ?reverse_delete:bool -> ?budget:Budget.t -> Arena.t -> result

(** {2 The kernel, for the LowDeg sweep}

    {!solve_arena} is these two steps, unrestricted, plus the answer it
    returns: the deletion as a set, its outcome and the duals map. A
    LowDeg sweep computes the capacities once, with the pruned wide
    tuples [R'_>] in [ignored_preserved], and runs {!deletion_ids} per
    threshold with the tuples of degree at most τ in [deletable], so a
    threshold it does not keep builds none of that. *)

(** sid -> total weight of its preserved view tuples outside
    [ignored_preserved], summed in ascending vid order. *)
val capacities : Arena.t -> ignored_preserved:Setcover.Bitset.t -> float array

(** Algorithm 1's dual raising over [bad_order] and, unless
    [reverse_delete] is false, its reverse delete: the deleted sids in
    the order they were chosen, or [None] iff some bad witness has no
    sid in [deletable]. [dual vid f] is called with each processed bad
    view tuple's dual, in processing order. Ticks [budget] exactly as
    {!solve_arena} does. *)
val deletion_ids :
  ?reverse_delete:bool ->
  ?budget:Budget.t ->
  ?dual:(int -> float -> unit) ->
  Arena.t ->
  capacity:float array ->
  deletable:Setcover.Bitset.t ->
  int list option
