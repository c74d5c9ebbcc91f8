(** The built-in solver implementations, packaged as {!Solver.S} modules
    and self-registered (in portfolio order: brute, primal-dual, lowdeg,
    dp-tree, general, greedy) when this module is linked. *)

(** The registry with all built-ins guaranteed registered — referencing
    the registry through this call (rather than {!Solver.all}) forces
    the module's initialization, so the built-ins cannot be dropped by
    dead-code elimination of an otherwise unused [Solvers]. *)
val registered : unit -> (module Solver.S) list

(** [check_names ~caller names] raises [Invalid_argument], prefixed by
    [caller], naming the first of [names] that no registered solver
    carries and every registered name: an unknown name in an [only]
    list would otherwise run no solver and fall to the unbudgeted
    greedy fallback. *)
val check_names : caller:string -> string list -> unit
