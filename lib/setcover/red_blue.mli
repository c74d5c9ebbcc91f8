(** The Red-Blue Set Cover problem (§II.D, Carr et al. [8]).

    Given disjoint red and blue element universes and a collection of
    sets over both, choose a sub-collection covering {e all} blue
    elements while minimizing the total weight of red elements covered.
    Red weights generalize the unit-cost problem; they carry the paper's
    user-preference weights through the VSE reduction (§IV.A).

    Inapproximability: within [O(2^{log^{1-δ} |C|})] unless P = NP
    (Thm 3.1 of [8]); reproduced empirically in experiment E2. *)

type set = {
  label : string;
  red : Iset.t;
  blue : Iset.t;
}

type t = private {
  red_weights : float array;   (** weight of each red element *)
  num_blue : int;
  sets : set array;
}

(** [make ~red_weights ~num_blue sets] — set members must be in range;
    raises [Invalid_argument] otherwise. *)
val make : red_weights:float array -> num_blue:int -> set list -> t

(** Unit red weights. *)
val make_unit : num_red:int -> num_blue:int -> set list -> t

val num_red : t -> int
val num_sets : t -> int

type solution = {
  chosen : int list;           (** indices into [sets], sorted *)
  red_covered : Iset.t;
  cost : float;                (** total weight of [red_covered] *)
}

(** [is_feasible t chosen] — do the chosen sets cover every blue element? *)
val is_feasible : t -> int list -> bool

(** [solution_of t chosen] — [None] if infeasible. *)
val solution_of : t -> int list -> solution option

(** Is the instance coverable at all (every blue in some set)? *)
val coverable : t -> bool

(** The three approximate solvers below pack the instance once per
    call — each set's blue and red members as {!Bitset}s and its red
    weight — and share it between the coverability test and the
    solver (and, in {!solve_approx}, between greedy and every threshold
    of the sweep). A candidate cover is scored on its red bitset, its
    weight summed in ascending red order as {!solution_of} sums it, and
    only the answer returned becomes a {!solution}. *)

(** Exact optimum by branch-and-bound over uncovered blue elements.
    [node_budget] (default [5_000_000]) caps search nodes; raises
    [Failure] when exceeded. [None] iff uncoverable.

    All solvers below take an optional [tick] callback, called once per
    unit of work (search node, greedy step, threshold). Cooperative
    cancellation hook: callers thread a deadline check in and abort a
    run by raising from the callback — this library stays free of any
    clock or budget policy. *)
val solve_exact : ?node_budget:int -> ?tick:(unit -> unit) -> t -> solution option

(** Greedy heuristic: repeatedly take the set maximizing
    (newly covered blue) / (ε + weight of newly covered red). The inner
    loop runs on packed {!Bitset}s (word-parallel gain counting). *)
val solve_greedy : ?tick:(unit -> unit) -> t -> solution option

(** Peleg's low-degree sweep (the engine behind LowDegTreeVSE, Alg. 2-3):
    for each threshold τ discard sets whose red weight exceeds τ, cover
    blue greedily by number of sets, keep the cheapest feasible outcome
    over all τ (the first of least cost). Ratio 2√(|C| log β) on unit
    weights. The per-τ cover is a lazy-decreasing-gain greedy over
    {!Bitset}s: stale priority-queue gains are upper bounds, so sets
    are rescored only when popped. *)
val solve_lowdeg : ?tick:(unit -> unit) -> t -> solution option

(** Best of {!solve_greedy} and {!solve_lowdeg} (greedy on a tie), on
    one packed instance. *)
val solve_approx : ?tick:(unit -> unit) -> t -> solution option

val pp : Format.formatter -> t -> unit
