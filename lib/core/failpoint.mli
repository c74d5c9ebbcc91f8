(** Fault-injection registry.

    A failpoint is a named site in production code ([Portfolio] runs one
    per solver; the session files' four writes run ["journal.append"],
    ["journal.rewrite"], ["snapshot.write"] and ["rows.write"], all
    interpreted by [Engine.Durable]) that does nothing unless an action
    has been armed for its name — via {!set}, or via the
    [DELEPROP_FAILPOINTS] environment variable at first use. The resilience test suite arms
    points programmatically to drive solver crashes and torn journal
    writes; CI arms a benign set through the environment so the whole
    suite runs with the machinery live.

    Environment syntax (comma-separated [name=action]):
    {v
    DELEPROP_FAILPOINTS="solver.greedy=raise,journal.append=delay:5"
    DELEPROP_FAILPOINTS="journal.append=crash_after_bytes:128"
    v}

    Environment entries are validated against the registered site names
    ({!register}; the static journal/snapshot sites and every
    ["solver.<name>"] are pre-registered): an unknown name raises
    [Invalid_argument] at the first lookup instead of silently testing
    nothing.

    Programmatic {!set}/{!clear} override the environment entry of the
    same name. The registry is a process-wide table guarded by a mutex —
    safe to consult from pool workers. *)

type action =
  | Raise                      (** raise {!Injected} at the site *)
  | Delay_ms of int            (** sleep that long, then continue *)
  | Crash_after_bytes of int
      (** the session files' writes only: emit this many of the write's
          bytes, complete it iff that was all of them, then raise
          {!Injected} — a torn write *)

(** Raised by sites whose action is [Raise] (and by a write when its
    byte allowance runs out). Carries the failpoint name. *)
exception Injected of string

(** Arm [name]. Replaces any previous action for the name, and registers
    [name] as a known site. *)
val set : string -> action -> unit

(** Disarm [name] (also shadows an environment entry of that name). *)
val clear : string -> unit

(** Disarm everything and forget the cached environment — the next
    lookup re-reads [DELEPROP_FAILPOINTS]. Test isolation. (Site names
    registered so far stay known.) *)
val reset : unit -> unit

(** Declare [name] a known failpoint site, making it legal in
    [DELEPROP_FAILPOINTS]. Production sites register themselves (the
    solver adapters at module init); tests using ad-hoc names go through
    {!set}, which registers implicitly. *)
val register : string -> unit

(** All registered site names, sorted. *)
val names : unit -> string list

(** The armed action, if any. The one [Crash_after_bytes] consumer
    ([Engine.Durable]) uses this to track the allowance. Raises
    [Invalid_argument] if [DELEPROP_FAILPOINTS] names an unregistered
    site. *)
val find : string -> action option

(** Execute the site: no-op when unarmed or armed [Crash_after_bytes]
    (which only the writes interpret); sleeps on [Delay_ms]; raises
    {!Injected} on [Raise]. *)
val hit : string -> unit

(** Parse the environment syntax. Malformed entries raise
    [Invalid_argument]; name validation happens at lookup time against
    the registered sites. *)
val parse : string -> (string * action) list
