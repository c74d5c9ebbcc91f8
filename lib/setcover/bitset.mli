(** Packed mutable bitsets over a fixed integer universe [0..len-1].

    The solver kernels (arena-backed primal-dual, LowDeg, the Red-Blue
    greedy family) run over dense tuple ids; this module gives them
    word-parallel membership, union, intersection and popcount instead of
    the O(log n) persistent {!Iset} operations. Sets are mutable and
    fixed-width: all binary operations require both operands to share the
    same [length] and raise [Invalid_argument] otherwise. *)

type t

(** [create n] — the empty set over universe [0..n-1]. *)
val create : int -> t

(** [full n] — the set containing every element of [0..n-1]. *)
val full : int -> t

(** Universe size [n] (not the cardinality). *)
val length : t -> int

val copy : t -> t

(** Membership / single-element updates; indexes out of [0..n-1] raise
    [Invalid_argument]. *)

val mem : t -> int -> bool
val add : t -> int -> unit
val remove : t -> int -> unit

(** Number of elements present (popcount). *)
val cardinal : t -> int

val is_empty : t -> bool
val equal : t -> t -> bool

(** [subset a b] — is [a ⊆ b]? *)
val subset : t -> t -> bool

val disjoint : t -> t -> bool

(** In-place bulk updates: [union_into ~into a] is [into := into ∪ a],
    and similarly for intersection and difference. *)

val union_into : into:t -> t -> unit
val inter_into : into:t -> t -> unit
val diff_into : into:t -> t -> unit

(** Pure counterparts (allocate a fresh set). *)

val union : t -> t -> t
val inter : t -> t -> t
val diff : t -> t -> t

(** Allocation-free cardinalities of binary combinations. *)

val inter_cardinal : t -> t -> int
val diff_cardinal : t -> t -> int

(** Ascending-order traversal. *)

val iter : (int -> unit) -> t -> unit
val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a

(** [iter_diff f a b] applies [f] to every element of [a \ b] in
    ascending order, without materializing the difference. *)
val iter_diff : (int -> unit) -> t -> t -> unit

(** [sum w a] — Σ [w.(i)] over the elements of [a], added in
    ascending order from [0.0], so it has the bits of
    [fold (fun i acc -> acc +. w.(i)) a 0.0]; [sum_inter w a b] sums
    over [a ∩ b] and [sum_diff w a b] over [a \ b] the same way. No
    allocation. *)

val sum : float array -> t -> float
val sum_inter : float array -> t -> t -> float
val sum_diff : float array -> t -> t -> float

(** Ascending element list / inverse constructor. *)

val elements : t -> int list
val of_list : len:int -> int list -> t

val pp : Format.formatter -> t -> unit
