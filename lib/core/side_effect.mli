(** Semantics of a candidate deletion [ΔD]: which view tuples die, whether
    all of [ΔV] is realized, and the (weighted) side-effect (§II.C). *)

(** [cost], [balanced_cost] and [feasible] are computed when the
    outcome is; the two view-tuple sets are built when a caller first
    forces them. An outcome of {!eval_arena} keeps only the killed vids
    and the arena's bitsets until then, so a round that reads no set —
    every solver's and the planner's composite on a session round —
    builds none. Two domains must not force the same set at once; a
    solver's outcome is read by the domain that asked for it. *)
type outcome = {
  deleted : Relational.Stuple.Set.t;  (** ΔD *)
  side_effect : Vtuple.Set.t Lazy.t;  (** preserved tuples ΔD eliminates *)
  residual_bad : Vtuple.Set.t Lazy.t; (** ΔV tuples that survive ΔD *)
  feasible : bool;                    (** [residual_bad] is empty *)
  cost : float;                       (** weighted side-effect, the paper's s_view *)
  balanced_cost : float;              (** weight(residual_bad) + weight(side_effect),
                                          the balanced objective (§III) *)
}

(** Fast evaluation through the witness index. *)
val eval : Provenance.t -> Relational.Stuple.Set.t -> outcome

(** [eval_arena a deleted] = [eval (Arena.provenance a) deleted],
    read off the arena's rows and bitsets: killed from the live
    [containing] rows of the deleted tuples (dead or unknown tuples
    kill nothing), side effect = killed ∧ [preserved], residual =
    [bad] ∧ ¬killed. The sets are equal once forced, and [cost] and
    [balanced_cost] equal to the bit. The planner's composite outcome,
    and the outcome of every shard solver's answer. *)
val eval_arena : Arena.t -> Relational.Stuple.Set.t -> outcome

(** [arena_cost a sids] — the [cost] of
    [eval_arena a (Arena.to_stuple_set a sids)] for live [sids], to the
    bit, with no set or outcome built: the LowDeg sweep scores each
    threshold's deletion with it. *)
val arena_cost : Arena.t -> int list -> float

(** Ground truth by re-running every query on [D \ ΔD] — used by tests to
    validate the index-based evaluation, and by experiments on
    non-key-preserving semantics. *)
val eval_ground_truth : Problem.t -> Relational.Stuple.Set.t -> outcome

val pp : Format.formatter -> outcome -> unit
