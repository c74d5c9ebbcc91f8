(** First-class solver abstraction.

    Every deletion-propagation algorithm is packaged as a module of this
    signature and registered here; {!Portfolio} and {!Planner} are thin
    policies over the registry (which solvers to run on which arena, in
    which order) rather than hardcoded fan-outs. *)

module type S = sig
  val name : string
  (** Registry key, e.g. ["primal-dual"]. *)

  val applicable : Arena.t -> bool
  (** Cheap structural test: can this solver possibly produce an answer
      on the instance? Used by the {!Planner} to classify shards; a
      solver whose [solve] returns [None] on inapplicable instances may
      conservatively answer [true]. *)

  val solve : ?budget:Budget.t -> Arena.t -> Solution.t option
  (** One attempt. [None] when inapplicable or infeasible under the
      solver's restriction; raises {!Budget.Expired} (or anything else)
      on failure — {!run} classifies. Implementations leave
      [elapsed_ms = 0.]; {!run} stamps the measured wall-clock. *)
end

type failure_reason =
  | Timed_out
  | Crashed of string

type failure = {
  algorithm : string;
  elapsed_ms : float;
  reason : failure_reason;
}

type attempt =
  | Solved of Solution.t
  | Inapplicable
  | Failed of failure

val pp_failure : Format.formatter -> failure -> unit

(** One classified attempt — no exception leaves this wrapper, so a
    crashing or timed-out solver never takes a round (or a pool worker)
    down with it. Crosses [Failpoint.hit ("solver." ^ name)] first and
    stamps the solution's [elapsed_ms] with the measured wall-clock
    ([Unix.gettimeofday]: process CPU time lies on parallel domains). *)
val run : ?budget:Budget.t -> (module S) -> Arena.t -> attempt

(** {2 Registry}

    Insertion-ordered; registering a name again replaces the entry in
    place (the order is observable — {!Solution.rank} is stable, so
    cost ties resolve to the earlier-registered solver). The built-in
    algorithms register themselves from {!Solvers}. *)

val register : (module S) -> unit
val find : string -> (module S) option
val all : unit -> (module S) list
val names : unit -> string list
