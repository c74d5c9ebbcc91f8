(** Work-stealing domain parallelism for the embarrassingly-parallel
    outer loops (the LowDeg τ-sweep, the portfolio fan-out, the
    planner's shard fan-out).

    Inputs must be safe to process concurrently — in this codebase every
    solver input (provenance, arena) is immutable, and each worker
    allocates its own mutable state.

    There is one work loop, {!Pool}'s claim-and-drain. A {!Pool.t} keeps
    its domains parked between jobs, so a long-lived session (the
    engine) pays the spawn cost once; {!map} without a pool runs a
    one-off job on a pool of its own, created and shut down inside the
    call, and a job one domain wide is a plain sequential map with no
    pool at all.

    Each entry point comes in two dialects: [map] re-raises the first
    exception once every item has run, while [map_result] captures each
    item's outcome as a [result] — the failure-isolation dialect the
    portfolio and the planner use so one crashing task cannot abort its
    siblings. *)

(** A persistent pool of [size - 1] worker domains (the calling domain is
    always the [size]-th worker). Workers idle on a condition variable
    between jobs; {!Pool.map} publishes a job, participates in the drain,
    and returns when every item is done. One job runs at a time —
    concurrent callers serialize, and a {!Pool.map} from inside a worker
    (nested parallelism) degrades to a sequential map rather than
    deadlocking. *)
module Pool : sig
  type t

  (** [create ?domains ()] — [domains] (default
      [Domain.recommended_domain_count ()]) is the total worker count
      including the caller; [domains = 1] creates a pool that never
      spawns and maps sequentially. Raises [Invalid_argument] when
      [domains < 1] — zero or negative sizes are programming errors, not
      requests for a sequential pool. *)
  val create : ?domains:int -> unit -> t

  val size : t -> int

  (** Same contract as {!Par.map}: order-preserving, first exception
      re-raised after the job drains. After {!shutdown} (or from inside a
      pool worker) this runs sequentially. *)
  val map : t -> ('a -> 'b) -> 'a list -> 'b list

  (** Order-preserving, one [result] per input item: [Error e] where the
      function raised [e], [Ok y] elsewhere. Never raises itself; a pool
      surviving a failing job stays usable for the next one. *)
  val map_result : t -> ('a -> 'b) -> 'a list -> ('b, exn) result list

  (** Park and join the worker domains. Idempotent, and safe to call
      from several domains concurrently — callers serialize and every
      one returns after the workers are joined. A pool whose owner
      forgets to call this leaks idle domains until process exit but
      does not block it. *)
  val shutdown : t -> unit
end

(** [map ~domains f xs] — [List.map f xs], the applications distributed
    over [domains] domains (the calling domain included). Result order
    matches input order regardless of scheduling, so deterministic [f]
    gives deterministic results. [domains] defaults to 1 and is clamped
    above by [length xs]; one domain is a plain sequential map, more run
    on a {!Pool.t} created and shut down inside the call;
    [domains < 1] raises [Invalid_argument]. The first exception raised
    by [f] is re-raised after every item has run.

    When [pool] is given it wins over [domains]: the job runs on the
    pool's parked workers with no domain spawned. *)
val map : ?domains:int -> ?pool:Pool.t -> ('a -> 'b) -> 'a list -> 'b list

(** The failure-isolating dialect of {!map}: same strategies and
    ordering, but each item's outcome is captured as a [result] instead
    of the first exception aborting the batch. Never raises itself,
    apart from the [domains < 1] check. *)
val map_result :
  ?domains:int -> ?pool:Pool.t -> ('a -> 'b) -> 'a list -> ('b, exn) result list
