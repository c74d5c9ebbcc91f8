(** The built-in solver implementations, packaged as {!Solver.S} modules
    and self-registered (in portfolio order: brute, primal-dual, lowdeg,
    dp-tree, general, greedy) when this module is linked. *)

(** The registry with all built-ins guaranteed registered — referencing
    the registry through this call (rather than {!Solver.all}) forces
    the module's initialization, so the built-ins cannot be dropped by
    dead-code elimination of an otherwise unused [Solvers]. *)
val registered : unit -> (module Solver.S) list
