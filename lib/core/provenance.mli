(** The unique-witness provenance index.

    For key-preserving queries every view tuple has exactly one witness —
    the key variables all appear in the head, and keys determine tuples
    (§II.C: "checking the view side-effect can be performed by finding
    the occurrences of key values of the deleted relation tuples in the
    view"). All solvers work on this index rather than re-evaluating
    queries. *)

type t = private {
  problem : Problem.t;
  views : Relational.Tuple.Set.t Smap.t;       (** query -> V_i *)
  witness : Relational.Stuple.Set.t Vtuple.Map.t;
      (** view tuple -> its unique witness (as a set) *)
  witness_path : Relational.Stuple.t list Vtuple.Map.t;
      (** witness in body-atom order, duplicates collapsed — the join path
          used by the tree algorithms *)
  containing : Vtuple.Set.t Relational.Stuple.Map.t;
      (** source tuple -> view tuples whose witness contains it; total on
          all tuples of D (empty set when in no witness) *)
  bad : Vtuple.Set.t;        (** ΔV as view tuples *)
  preserved : Vtuple.Set.t;  (** V \ ΔV *)
}

exception Ambiguous_witness of Vtuple.t
(** Raised by {!build} when a view tuple has two derivations — impossible
    for key-preserving queries, so its occurrence means the caller opted
    out of the key-preserving check yet used a witness-based solver. *)

(** [build p] — the index of [p], in one bulk pass. Key preservation
    makes the index a function of the join's answers. D is interned to
    sids in one {!Relational.Instance.fold} (Stuple.compare order),
    with a table from each source tuple back to its sid. [build] then
    compiles each query once ({!Cq.Eval.compile}) and reads only what
    {!Cq.Eval.iter} streams: each derivation's answer and its body
    tuples, which the table turns into sids on the spot (no witness
    records, no match list). A query's (answer, body sids) pairs are
    sorted by head tuple, a pass that is skipped when the join already
    yields them in that order; two derivations of one answer are then
    adjacent, and the first such pair (query order, then tuple order)
    raises {!Ambiguous_witness}. The view tuples take vids in
    Vtuple.compare order. A witness row is the derivation's sorted
    unique sids, and its [witness] set and [witness_path] are made of
    D's interned records (the ones [containing] is keyed by), so the
    maps share each source tuple instead of holding the join's copies.
    Every map is filled from those sorted runs with no per-element
    update: [witness_path] joins ascending halves, [witness] is its
    [Map.map] sibling, and [containing] inverts the witness rows. Cost:
    the join, at most one sort per query, one table lookup per body
    atom of each derivation, and map nodes linear in ‖D‖ + ‖V‖ where
    one [add] or [update] per element copied a path. *)
val build : Problem.t -> t

(** An index's tuples interned to dense ids in sorted order: what
    {!Arena.build} and {!Arena.of_problem} compile. *)
type interning = {
  sorted_stuples : Relational.Stuple.t array;
      (** sid -> source tuple: every tuple of D, ascending *)
  sorted_vtuples : Vtuple.t array;  (** vid -> view tuple: all of V, ascending *)
  witness_rows : int array array;   (** vid -> its witness's sids, ascending *)
}

(** [build_interned p] — [build p] and the interning it filled its maps
    from, so {!Arena.of_problem} interns no tuple twice. *)
val build_interned : Problem.t -> t * interning

(** [interning t] — the interning of an existing index, read off the
    sorted traversals of [containing] and [witness] with one table
    lookup per witness member. Equals [snd (build_interned p)] when
    [t = build p]. *)
val interning : t -> interning

(** [with_deletions t reqs] — the same index re-targeted at a new ΔV:
    [bad]/[preserved] recomputed from the requests, the (D, Q)-dependent
    maps ([views], [witness], [witness_path], [containing]) shared
    unchanged, and [t.problem] re-stamped via {!Problem.patch}. Equals
    [build] on the corresponding problem, at O(‖ΔV‖ log ‖V‖) cost.
    Raises [Invalid_argument] when a requested tuple is not a current
    view answer (use {!Delta_request.validate} for a typed error). *)
val with_deletions : t -> Delta_request.t list -> t

(** [delete t dd] — the index after committing the source deletion [dd]:
    killed view tuples ([kills t dd]) leave every map, [dd] leaves
    [containing] and the database, and realized deletions leave ΔV.
    Equals [build] on the patched problem (monotone queries: deletions
    never create answers), touching only the killed rows. *)
val delete : t -> Relational.Stuple.Set.t -> t

(** [insert t st] — the index after committing the source insertion
    [st] (which must be absent from the database; the underlying
    {!Relational.Instance.add_stuple} key check applies): the view
    tuples gained by [st] ({!Cq.Maintain.gained_answers}) enter
    [views], [witness], [witness_path] and [preserved], every member of
    a new witness gains the view tuple in its [containing] row, and
    [st] gets a (possibly empty) row of its own — the map stays total
    on D. ΔV is untouched: a gained tuple cannot be a requested
    deletion. Equals [build] on the extended problem, touching only the
    gained rows; raises {!Ambiguous_witness} when the insertion gives
    some view tuple a second derivation (the extended instance is then
    no longer key preserving — the same condition [build] rejects). *)
val insert : t -> Relational.Stuple.t -> t

(** [restrict t ~stuples ~vtuples ~bad] — the sub-index induced by a
    witness-closed pair under the ΔV [bad ⊆ vtuples]: every witness of
    a [vtuples] member lies inside [stuples], and [stuples] joins into
    no view tuple outside [vtuples] (i.e. the pair is a union of
    connected components of the stuple↔vtuple incidence graph, which is
    what {!Arena.materialize} passes, with the shard's ΔV read off the
    arena's bitset — [t.bad] is not consulted). Trusted constructor in
    the style of {!Problem.patch}: no validation, but for
    component-closed inputs the result equals [build] on the restricted
    database — queries are monotone, so the sub-database derives
    exactly the component's view tuples. The restricted database is
    rebuilt by insertion, so the cost is O(|shard| log |shard|), not
    O(‖D‖). *)
val restrict :
  t -> stuples:Relational.Stuple.Set.t -> vtuples:Vtuple.Set.t -> bad:Vtuple.Set.t -> t

val all_vtuples : t -> Vtuple.Set.t

val witness_of : t -> Vtuple.t -> Relational.Stuple.Set.t

(** View tuples containing a source tuple (empty for tuples of [D] in no
    witness). *)
val vtuples_containing : t -> Relational.Stuple.t -> Vtuple.Set.t

(** [kills prov dd] — the view tuples eliminated by deleting [dd]:
    those whose witness intersects [dd]. *)
val kills : t -> Relational.Stuple.Set.t -> Vtuple.Set.t

(** Source tuples appearing in at least one bad witness — the only
    candidates an optimal solution ever deletes (deleting anything else
    can only hurt). *)
val candidates : t -> Relational.Stuple.Set.t

val pp : Format.formatter -> t -> unit
