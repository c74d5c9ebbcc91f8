(** Exact optimum, exponential time — the reference the approximation
    experiments compare against.

    Two engines: branch-and-bound through the {!Reduction.to_red_blue}
    image (default, prunes well), and [solve_enum], a direct subset
    enumeration over candidate tuples used by tests to validate the
    reduction. *)

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
    {!Budget.Expired} — exact-or-nothing, no partial answer. *)
val solve : ?node_budget:int -> ?budget:Budget.t -> Provenance.t -> result option

(** Plain subset enumeration; [max_candidates] (default 20) guards the
    2^n blowup — raises [Invalid_argument] beyond it. *)
val solve_enum : ?max_candidates:int -> Provenance.t -> result option

(** Exact optimum under the {e general} (possibly non-key-preserving)
    semantics: candidates are the tuples occurring in {e any} witness of a
    bad view tuple, and every subset is scored by full re-evaluation
    ([Side_effect.eval_ground_truth]). This is the engine behind the
    paper's Fig. 1 discussion of query [Q3], whose projected view tuples
    have several witnesses. Exponential and slow — example scale only. *)
val solve_ground_truth : ?max_candidates:int -> Problem.t -> result option
