(** Canonical content fingerprints for arenas.

    [arena a] is an FNV-1a hash (mixed on the native 63-bit int lane)
    over everything a solver can
    observe of [a]: the interned source tuples (relation + values), the
    view tuples (query + values), their preservation weights, the bad
    (ΔV) markers, and the witness incidence rows. Two arenas with the
    same content hash identically — and because a shard arena is rebuilt
    over shard-local ids in sorted-tuple order ({!Arena.materialize}), a
    shard's fingerprint is invariant under the parent's component
    numbering and under any id compaction earlier deltas performed. That
    makes it a sound memo key for per-shard solutions ({!Planner}): same
    fingerprint ⟹ same shard instance ⟹ same deterministic solver
    answer.

    Collisions are possible in principle (64-bit hash); the planner's
    cache pairs fingerprint lookup with the engine's conservative dirty
    tracking, which only consults the cache for components no delta has
    touched since they were last solved. *)

type t = int64

(** Fingerprint an arena's full solver-visible content (tuples, views,
    weights, ΔV, witness structure). Live slots only, witness sids
    hashed by live rank — a tombstoned arena hashes identically to its
    compacted form, and an arena with no tombstones identically to the
    pre-tombstone stream. O(‖D‖ + ‖V‖ + Σ|witness|). *)
val arena : Arena.t -> t

(** [shard a ps] = [arena (materialize a ps).arena], computed straight
    off the parent — no shard arena built. This is
    what makes consulting the cache for a clean component far cheaper
    than preparing to re-solve it: the planner only pays
    {!Arena.materialize} for dirty shards and cache misses. The equality
    with the built shard's fingerprint is enforced by a property test
    ([test/test_shardcache.ml]).

    [?bad] overrides the parent's ΔV bitset (same physical vid space):
    the split-aware reuse path ({!Planner.seed_fragments}) uses it to
    hash a surviving fragment under the {e memoized} request rather than
    whatever ΔV the arena currently carries. *)
val shard : ?bad:Setcover.Bitset.t -> Arena.t -> Arena.proto_shard -> t

(** [digest a] — an order-independent content digest of the instance
    an arena's live rows hold: one FNV-1a term per live source tuple and
    one per live view tuple (query, values, preservation weight, and
    the witness members' contents), summed mod 2^63. Tombstone-,
    compaction- and layout-invariant, since nothing positional enters
    a term, and ΔV-free. This is the engine's snapshot coordinate, the
    value the set-based index of the same instance hashed to (snapshot
    format v6): O(‖D‖ + ‖V‖) from scratch, but kept current per
    committed delta by {!digest_delta}. Not interchangeable with
    {!arena}: the two hash different streams. *)
val digest : Arena.t -> t

(** [digest_delta (digest a0) ~before:a0 ~dd ~after:a2 ~ins = digest a2]
    when [a2] is [a0] after deleting [dd] ({!Arena.tombstone}) and then
    inserting [ins] ({!Arena.insert}) — [dd] live tuples of [a0], [ins]
    live tuples of [a2]. Costs O(|dd| + |ins| + killed + gained) plus
    bitset words: it subtracts the terms of [dd] and of the live view
    tuples in their [containing] rows in [a0], and adds those of [ins]
    and of the live view tuples in theirs in [a2] (exactly the view
    tuples [ins] gained). *)
val digest_delta :
  t ->
  before:Arena.t ->
  dd:Relational.Stuple.Set.t ->
  after:Arena.t ->
  ins:Relational.Stuple.Set.t ->
  t

val equal : t -> t -> bool
val compare : t -> t -> int
val to_hex : t -> string

(** Inverse of {!to_hex}: parses exactly 16 lowercase/uppercase hex
    digits, [None] on anything else. The snapshot codec round-trips
    fingerprints through this pair. *)
val of_hex : string -> t option

val pp : Format.formatter -> t -> unit
