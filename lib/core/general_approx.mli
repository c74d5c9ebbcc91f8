(** The general-case approximation (§IV.A, Claim 1).

    Reduce view side-effect to Red-Blue Set Cover (one set per tuple
    joined into the views, §IV.A (a)–(c)), run Peleg's LowDeg algorithm,
    and map the cover back to a source deletion. The reduction preserves
    feasibility and cost, so the RBSC ratio transfers:
    [O(2·sqrt(l · ‖V‖ · log ‖ΔV‖))]. *)

type result = {
  deletion : Relational.Stuple.Set.t;
  outcome : Side_effect.outcome;
  claimed_bound : float;
      (** Claim 1's ratio [2·sqrt(l · ‖V‖ · log ‖ΔV‖)] for this
          instance — experiments compare measured ratio against it. *)
}

(** [budget] is ticked before the reduction and once per greedy /
    threshold step inside the RBSC solvers; on expiry the run unwinds
    with {!Budget.Expired}. *)
val solve_arena : ?budget:Budget.t -> Arena.t -> result option

(** [solve_arena] on [Arena.build prov]. *)
val solve : ?budget:Budget.t -> Provenance.t -> result option

(** The bound alone, with ‖V‖ and ‖ΔV‖ the arena's live counts. *)
val bound : Arena.t -> float
