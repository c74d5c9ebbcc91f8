(** [LowDegTreeVSE] and [LowDegTreeVSETwo] (Algorithms 2–3, §IV.D):
    the 2√‖V‖-approximation for the forest case, refining Peleg's
    LowDegTwo [8] with the primal-dual l-approximation as the inner
    solver.

    For a degree threshold τ (Algorithm 2):
    + tuples joined into more than τ preserved view tuples are barred
      from deletion (the paper "removes" them from the instance);
    + preserved view tuples wider than √‖V‖ (witness size) are pruned
      from the cost function (the set [R'_>], whose size Claim 2 bounds
      by √‖V‖·τ);
    + Algorithm 1 runs on the restricted instance
      ({!Primal_dual.capacities} without R'_>, then
      {!Primal_dual.deletion_ids} over the tuples not barred).

    Algorithm 3 sweeps τ (the optimum's max degree τ̂ is unknown) and
    keeps the best feasible outcome; Claim 3 + Theorem 4 give the
    2√‖V‖ ratio, validated against brute force in experiment E6. *)

type result = {
  deletion : Relational.Stuple.Set.t;
  outcome : Side_effect.outcome;
  tau : int;             (** threshold that produced this solution *)
  pruned_wide : int;     (** |R'_>| at that threshold *)
  complete : bool;       (** false when a time budget cut the τ-sweep
                             short: the answer is the best of the
                             thresholds that finished (anytime), so
                             Theorem 4's ratio is void *)
}

(** Algorithm 2 at a fixed τ; [None] when the restricted instance is
    infeasible (some bad witness entirely barred). [prune_wide] (default
    true) controls the R'_> pruning of line 7 — disabling it is the
    ablation of experiment E15. Compiles a fresh arena; use
    {!solve_with_tau_arena} to share one across thresholds. [budget]
    flows into the inner primal-dual, which raises {!Budget.Expired} on
    expiry. *)
val solve_with_tau :
  ?prune_wide:bool -> ?budget:Budget.t -> Provenance.t -> tau:int -> result option

(** Algorithm 2 over a prebuilt {!Arena.t} — degree restriction, wide
    pruning and the inner primal-dual all run on arena ids. The R'_>
    pruning cuts at {!wide_cutoff} of this arena, so a shard is pruned
    at its own [√‖V_shard‖]. *)
val solve_with_tau_arena :
  ?prune_wide:bool -> ?budget:Budget.t -> Arena.t -> tau:int -> result option

(** [√‖V‖] of this arena, read off its live view-tuple count: the
    witness-width cutoff of the R'_> pruning, and half the ratio a
    complete sweep certifies. *)
val wide_cutoff : Arena.t -> float

(** Algorithm 3: sweep τ over the distinct preserved-degrees, return the
    cheapest feasible solution — the first threshold of least cost, in
    ascending τ. Total sweep is never infeasible (the largest τ bars
    nothing). The arena is built once and shared by all thresholds, and
    so is what no threshold changes: the primal-dual capacities
    ({!Primal_dual.capacities}), the pruned set R'_> and each tuple's
    preserved degree. Each threshold runs {!Primal_dual.deletion_ids}
    and is scored by {!Side_effect.arena_cost}, with no set, outcome or
    duals built; only the winner becomes a deletion set and an outcome,
    equal to the bit to what {!solve_with_tau_arena} returns at its τ.
    [domains] (default 1 = sequential) distributes the independent
    per-τ runs over a one-off {!Par.Pool.t} that wide, while [pool]
    (which wins when given) runs them on a persistent one instead —
    results are identical whatever the strategy ({!Par.map_result}).

    The sweep is {e anytime} under [budget]: thresholds that outlive the
    deadline are dropped, the best finished one is returned with
    [complete = false]; {!Budget.Expired} escapes only when not a single
    threshold finished. *)
val solve :
  ?prune_wide:bool -> ?domains:int -> ?pool:Par.Pool.t -> ?budget:Budget.t ->
  Provenance.t -> result

(** Algorithm 3 over a prebuilt arena — what a session solving many
    rounds against one compiled index calls. *)
val solve_arena :
  ?prune_wide:bool -> ?domains:int -> ?pool:Par.Pool.t -> ?budget:Budget.t ->
  Arena.t -> result

(** Theorem 4's claimed ratio for the instance: [2·sqrt ‖V‖]. *)
val bound : Problem.t -> float
