(** Solver portfolio: run every registered algorithm ({!Solver},
    {!Solvers}) on an instance and rank the outcomes. The paper's
    algorithms have incomparable guarantees (l vs 2√‖V‖ vs
    exact-on-pivot-forests vs the general reduction); at run time the
    cheapest feasible answer simply wins. This module is pure policy —
    the algorithms themselves live in the {!Solver} registry, the
    attempt classification in {!Solver.run}.

    [Brute] participates only when the candidate set is small
    ([exact_threshold], default 16 candidates).

    The fan-out is {e resilient}: a solver that crashes or outlives the
    round's time budget is recorded in {!report.failures} and skipped —
    it never takes the round (or a pool worker) down with it — and a
    degradation ladder guarantees a budgeted round still answers. *)

type failure_reason = Solver.failure_reason =
  | Timed_out           (** the round budget expired inside the solver *)
  | Crashed of string   (** the solver raised; payload is [Printexc.to_string] *)

type failure = Solver.failure = {
  algorithm : string;
  elapsed_ms : float;   (** wall-clock spent before the solver died *)
  reason : failure_reason;
}

type report = {
  solutions : Solution.t list;  (** feasible only, cheapest first *)
  failures : failure list;      (** solvers that timed out or crashed *)
  degraded : bool;
      (** true when no solver finished with a feasible answer and the
          ladder fell back to an unbudgeted greedy pass — [solutions] is
          then that single heuristic answer *)
}

val pp_failure : Format.formatter -> failure -> unit

(** All applicable solvers over a prebuilt arena. Solutions are ranked
    {!Solution.t}s (feasible only, cheapest first, each carrying its
    guarantee certificate). [only] keeps just the named algorithms
    (["brute"], ["primal-dual"], ["lowdeg"], ["dp-tree"], ["general"],
    ["greedy"]; a name outside the registry raises [Invalid_argument],
    see {!Solvers.check_names}); the fan-out is {!Par.map_result}:
    sequential by default, on a persistent {!Par.Pool.t} with [pool]
    (the engine's mode), on a one-off pool [domains] wide otherwise.

    [budget_ms] arms one shared deadline for the round: solvers tick it
    cooperatively and unwind with {!Budget.Expired} on expiry (recorded
    as [Timed_out]); LowDeg instead salvages its best finished threshold
    and certifies it {!Solution.Anytime}. When every solver fails, the
    round degrades to the always-terminating greedy pass (run unbudgeted
    and outside the failpoint registry) and sets [degraded].

    Fault-injection hook: each solver attempt first crosses
    [Failpoint.hit ("solver." ^ name)]. *)
val solutions_report :
  ?exact_threshold:int ->
  ?only:string list ->
  ?domains:int ->
  ?pool:Par.Pool.t ->
  ?budget_ms:float ->
  Arena.t ->
  report

(** [solutions_report] without the failure detail — never empty for
    well-formed instances (primal-dual always applies, and the
    degradation ladder backstops budgeted rounds). *)
val solutions :
  ?exact_threshold:int ->
  ?only:string list ->
  ?domains:int ->
  ?pool:Par.Pool.t ->
  ?budget_ms:float ->
  Arena.t ->
  Solution.t list

