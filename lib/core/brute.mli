(** Exact optimum, exponential time — the reference the approximation
    experiments compare against.

    Branch-and-bound through the {!Reduction.to_red_blue} image of the
    arena, which prunes well; a plain subset enumeration over the
    candidates is the test suite's oracle for it. *)

type result = {
  deletion : Relational.Stuple.Set.t;
  outcome : Side_effect.outcome;
}

(** [None] when no feasible deletion exists (never happens for
    key-preserving instances with non-empty witnesses — deleting a whole
    witness is always feasible... unless a bad tuple shares its witness
    with nothing; feasibility always holds, so [None] only on empty
    candidate pathologies).

    [budget] is ticked once per branch-and-bound node (via the
    [Red_blue.solve_exact] tick hook); on expiry the search unwinds with
    {!Budget.Expired} — exact-or-nothing, no partial answer. Live slots
    only; the outcome is {!Side_effect.eval_arena}'s. *)
val solve_arena : ?node_budget:int -> ?budget:Budget.t -> Arena.t -> result option

(** [solve_arena] on [Arena.build prov]. *)
val solve : ?node_budget:int -> ?budget:Budget.t -> Provenance.t -> result option

(** Exact optimum under the {e general} (possibly non-key-preserving)
    semantics: candidates are the tuples occurring in {e any} witness of a
    bad view tuple, and every subset is scored by full re-evaluation
    ([Side_effect.eval_ground_truth]). This is the engine behind the
    paper's Fig. 1 discussion of query [Q3], whose projected view tuples
    have several witnesses. Exponential and slow — example scale only. *)
val solve_ground_truth : ?max_candidates:int -> Problem.t -> result option
