(** The single-query polynomial case (Cong et al. [15], Table IV).

    For a single key-preserving query and a {e single} view-tuple
    deletion, the optimum is found in polynomial time: the unique witness
    lists every way to kill the tuple; pick the witness tuple whose
    preserved-weight is minimal. With multiple deletions on one query the
    problem is already the multi-tuple case of [32]; [solve] then refuses
    and the caller falls back to the approximations — experiment E9
    exercises exactly this boundary. *)

type result = {
  deletion : Relational.Stuple.Set.t;
  outcome : Side_effect.outcome;
}

type error =
  | Not_single_query of int     (** the instance has this many queries *)
  | Not_single_deletion of int  (** ΔV has this many tuples *)

val solve_arena : Arena.t -> (result, error) Stdlib.result

(** [solve_arena] on [Arena.build prov]. *)
val solve : Provenance.t -> (result, error) Stdlib.result

val pp_error : Format.formatter -> error -> unit

(** Greedy extension used as a baseline on multi-deletion instances:
    kill bad tuples one at a time, each by its cheapest witness tuple
    given what is already deleted. Feasible but unboundedly suboptimal —
    the gap is part of experiment E9. Live slots only: the degradation
    ladder's last rung runs it on a tombstoned session arena. *)
val solve_greedy_multi : Arena.t -> result
