(** Semantics of a candidate deletion [ΔD]: which view tuples die, whether
    all of [ΔV] is realized, and the (weighted) side-effect (§II.C). *)

type outcome = {
  deleted : Relational.Stuple.Set.t;  (** ΔD *)
  side_effect : Vtuple.Set.t;         (** preserved tuples ΔD eliminates *)
  residual_bad : Vtuple.Set.t;        (** ΔV tuples that survive ΔD *)
  feasible : bool;                    (** [residual_bad] is empty *)
  cost : float;                       (** weighted side-effect, the paper's s_view *)
  balanced_cost : float;              (** weight(residual_bad) + weight(side_effect),
                                          the balanced objective (§III) *)
}

(** Fast evaluation through the witness index. *)
val eval : Provenance.t -> Relational.Stuple.Set.t -> outcome

(** [eval_arena a deleted] = [eval (Arena.provenance a) deleted],
    read off the arena's rows and bitsets: killed from the live
    [containing] rows of the deleted tuples (dead or unknown tuples
    kill nothing), side effect = killed ∧ [preserved], residual =
    [bad] ∧ ¬killed. The sets are equal and [cost] and [balanced_cost]
    equal to the bit. The planner's composite outcome, and the outcome
    of every primal-dual and LowDeg run on an arena. *)
val eval_arena : Arena.t -> Relational.Stuple.Set.t -> outcome

(** Ground truth by re-running every query on [D \ ΔD] — used by tests to
    validate the index-based evaluation, and by experiments on
    non-key-preserving semantics. *)
val eval_ground_truth : Problem.t -> Relational.Stuple.Set.t -> outcome

val pp : Format.formatter -> outcome -> unit
