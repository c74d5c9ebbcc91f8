(** A materialized-view manager: the operational wrapper that makes the
    propagation machinery usable as a running system. Register queries
    once; views are materialized eagerly and kept fresh {e incrementally}
    under source deletions (delta rules, {!Cq.Maintain}) and insertions
    (specialized delta evaluation) — never by full re-evaluation.

    This is the substrate a QOCO-style cleaning loop (§V) runs on:
    propose a repair with any solver, [apply] it, views stay consistent,
    iterate. Immutable/persistent: every operation returns a new manager.
    Consistency with from-scratch evaluation is property-tested. *)

type t

val create : Relational.Instance.t -> Cq.Query.t list -> t

val db : t -> Relational.Instance.t
val queries : t -> Cq.Query.t list

(** Materialized view of a registered query.
    Raises [Invalid_argument] on unknown names. *)
val view : t -> string -> Relational.Tuple.Set.t

(** Apply a deletion set; all views refreshed incrementally. *)
val delete : t -> Relational.Stuple.Set.t -> t

(** Insert one tuple (key-checked: raises [Relational.Relation.Key_violation]
    like the underlying instance); views extended by delta evaluation. *)
val insert : t -> Relational.Stuple.t -> t

val insert_all : t -> Relational.Stuple.Set.t -> t

(** Adopt already-materialized views without re-evaluating the queries —
    the caller asserts [views] = each query evaluated on [db] (e.g. the
    views of a provenance index just built over [db]). No validation
    happens here; use {!create} otherwise. *)
val of_views :
  Relational.Instance.t ->
  Cq.Query.t list ->
  Relational.Tuple.Set.t Smap.t ->
  t

(** Build a {!Problem.t} over the current state (the bridge to the
    solvers). Requests are validated against the materialized views
    first, so bad input surfaces as a typed {!Delta_request.error}
    instead of an [Invalid_argument] from deep inside [Problem.make]. *)
val problem :
  requests:Delta_request.t list ->
  ?weights:Weights.t ->
  t ->
  (Problem.t, Delta_request.error) result
