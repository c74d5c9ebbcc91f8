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

(** An instance's tuples interned to dense ids in sorted order: the
    rows an {!Arena} is made of. *)
type interning = {
  sorted_stuples : Relational.Stuple.t array;
      (** sid -> source tuple: every tuple of D, ascending *)
  sorted_vtuples : Vtuple.t array;  (** vid -> view tuple: all of V, ascending *)
  witness_rows : int array array;   (** vid -> its witness's sids, ascending *)
  path_rows : int array array;
      (** vid -> its witness's sids in body-atom order, consecutive
          duplicates dropped: the [witness_path] row *)
}

(** [intern p] — the join of [p], interned, with no map filled: key
    preservation makes the index a function of the join's answers. D
    is interned to sids in one {!Relational.Instance.fold}
    (Stuple.compare order), each query is compiled once
    ({!Cq.Eval.compile}), and each derivation {!Cq.Eval.iter} streams
    becomes its answer and its body sids on the spot. A query's
    derivations are sorted by answer (skipped when the join yields them
    in that order), so two derivations of one answer are adjacent, and
    the first such pair (query order, then tuple order) raises
    {!Ambiguous_witness}. Vids follow Vtuple.compare order; the rows
    are {!witness_row} and {!path_row} of the body sids. Cost: the
    join, at most one sort per query, one table lookup per body atom.
    {!Arena.of_problem} compiles this, and so does every session. *)
val intern : Problem.t -> interning

(** [of_interning p ids] — the index whose rows [ids] are, under [p]'s
    ΔV: [ids] must be the interning of [p]'s database and views (as
    {!intern} makes it, or a component of one with its ids renumbered
    ascending). The maps are filled from the sorted rows with no
    per-element update and share [ids]' records: [witness_path] joins
    ascending halves, [witness] is its [Map.map] sibling, [views] and
    [preserved] join ascending halves of the runs, and [containing]
    inverts the witness rows — map nodes linear in ‖D‖ + ‖V‖, no
    sort. *)
val of_interning : Problem.t -> interning -> t

(** [build p] — [of_interning p (intern p)]: the whole index of [p], in
    one bulk pass. *)
val build : Problem.t -> t

(** [interning t] — the interning of an existing index, read off the
    sorted traversals of [containing], [witness] and [witness_path]
    with one table lookup per row member. Equals [intern p] when
    [t = build p]. *)
val interning : t -> interning

(** A derivation's body sids (body-atom order) as its witness row:
    ascending, a self-join's repeated tuple once. *)
val witness_row : int array -> int array

(** A derivation's body sids as its path row: body order, consecutive
    duplicates dropped. *)
val path_row : int array -> int array

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
