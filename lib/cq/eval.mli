(** Evaluation of conjunctive queries with provenance.

    A match (§II.B) is an assignment [μ] of variables to constants under
    which every body atom becomes a tuple of the instance; [μ(head)] is
    the answer. The {e witness} of a match is the vector of source tuples
    used, one per body atom in body order — for key-preserving queries the
    witness is uniquely determined by the answer (§II.C), the property all
    solvers in this library exploit.

    {2 The compiled join}

    Every entry point compiles the query once per call ({!compile}) into
    one step per body atom, in plan order ({!Plan.order}, or body order
    under [~planned:false]), over one array of variable slots. Each step
    knows statically what each argument is: a constant, a variable an
    earlier step bound, or a variable first bound inside this atom (its
    first occurrence binds the slot, a repeat is checked against it).
    {!iter} then walks the steps depth first with no environment map, no
    candidate lists and no list concatenation.

    {b Cost model.} A step's candidates come from one lookup, chosen at
    compile time from the arguments known before the atom is visited
    (constants and variables of earlier steps; a variable first bound
    inside the atom is never used to pick an index):
    + every key position known: one key lookup
      ({!Relational.Relation.find_by_key}), at most one candidate;
    + else some position known: the smallest of the known columns'
      index sets ({!Relational.Relation.column_set}; with one known
      column no size is taken, with several each set's size is counted
      and the first smallest wins);
    + else the whole relation.

    Every candidate is then checked against every argument. The join
    allocates the answer tuple of each derivation, the key of each key
    lookup and one closure per step entered; witnesses are built only
    by {!matches} and {!provenance}.

    {b Order.} Derivations come in lexicographic order of their body
    tuples taken in plan order: at each step the candidates ascend
    ({!Relational.Tuple.compare}). Every lookup yields the same
    ascending candidates once checked, so the order does not depend on
    which index a step uses.

    {b Errors.} {!compile} (hence every entry point) raises
    [Invalid_argument], naming the query and the atom, on an empty body,
    an atom over a relation the instance lacks, and an atom whose arity
    differs from its relation's. A head variable that no body atom binds
    raises [Invalid_argument] only once a derivation exists, as an
    instance with no derivation has no answer to build. *)

type witness = Relational.Stuple.t array
(** One source tuple per body atom, in body order. *)

(** Source tuples of a witness, as a set (self-joins may legitimately use
    the same source tuple in two atoms; the set collapses them). *)
val witness_set : witness -> Relational.Stuple.Set.t

type plan
(** A query compiled against one instance: its steps in plan order and
    the relations they read. *)

(** [compile ?planned db q] — [q]'s plan over [db]. [planned] (default
    true) orders the steps by {!Plan.order}; otherwise they follow the
    body. Raises [Invalid_argument] as described above. *)
val compile : ?planned:bool -> Relational.Instance.t -> Query.t -> plan

(** [iter plan f] calls [f answer body] once per derivation, in the
    order described above. [answer] is fresh; [body] holds the body
    tuples in body order (the instance's own tuples, relation names
    from the query) in a buffer the next derivation overwrites, so [f]
    copies what it keeps. *)
val iter : plan -> (Relational.Tuple.t -> Relational.Tuple.t array -> unit) -> unit

(** All matches of [q] on the instance, as (answer, witness) pairs — one
    pair per assignment, so an answer with several derivations appears
    several times — in {!iter}'s order. Witnesses are always reported in
    the original body order. *)
val matches :
  ?planned:bool -> Relational.Instance.t -> Query.t -> (Relational.Tuple.t * witness) list

(** The query result [Q(D)]: the set of answers. *)
val evaluate : ?planned:bool -> Relational.Instance.t -> Query.t -> Relational.Tuple.Set.t

(** Answer -> all of its witnesses, the last derivation first. *)
val provenance :
  ?planned:bool ->
  Relational.Instance.t -> Query.t -> witness list Relational.Tuple.Map.t
