(** Cost-preserving reductions between deletion propagation and the set
    cover problems (§IV.A).

    Forward direction (used by the approximation algorithms):
    - one {e set} per candidate source tuple (tuples occurring in some bad
      witness — deleting anything else never helps),
    - one {e blue}/{e positive} element per [ΔV] tuple,
    - one {e red}/{e negative} element per preserved view tuple whose
      witness meets a candidate (weights carried over).
    A chosen sub-collection maps back to deleting the corresponding
    tuples; costs agree exactly, so approximation ratios transfer. Both
    images read the arena's live rows and bitsets, ids ascending. *)

type rbsc = {
  instance : Setcover.Red_blue.t;
  set_tuple : Relational.Stuple.t array;  (** set index -> source tuple *)
  red_vtuple : Vtuple.t array;            (** red id -> preserved view tuple *)
  blue_vtuple : Vtuple.t array;           (** blue id -> bad view tuple *)
}

(** Standard objective -> Red-Blue Set Cover. *)
val to_red_blue : Arena.t -> rbsc

val deletion_of_red_blue : rbsc -> Setcover.Red_blue.solution -> Relational.Stuple.Set.t

type pnpsc = {
  instance : Setcover.Pos_neg.t;
  set_tuple : Relational.Stuple.t array;
  neg_vtuple : Vtuple.t array;
  pos_vtuple : Vtuple.t array;
}

(** Balanced objective -> Positive-Negative Partial Set Cover. *)
val to_pos_neg : Arena.t -> pnpsc

val deletion_of_pos_neg : pnpsc -> Setcover.Pos_neg.solution -> Relational.Stuple.Set.t
