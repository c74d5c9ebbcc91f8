(** Whole-instance text format: database, queries, deletions and weights
    in one file, so a propagation problem is a single shareable artifact.

    {v
    # schema + facts (Relational.Serial syntax)
    rel T1(AuName*, Journal)
    T1(John, TKDE)
    rel T2(Journal*, Topic)
    T2(TKDE, XML)

    # views (Cq.Parser syntax, prefixed)
    query Q4(X, Y, Z) :- T1(X, Y), T2(Y, Z, W)

    # intended deletions
    delete Q4(John, TKDE, XML)

    # optional preservation weights (default 1)
    weight Q4(John, TKDE, CUBE) 5
    v} *)

exception Parse_error of int * string

val of_string : ?allow_non_key_preserving:bool -> string -> Problem.t
val of_file : ?allow_non_key_preserving:bool -> string -> Problem.t

(** Render a problem back to the format (weight overrides included,
    each written with {!Report.float_to_string}, so it reads back as
    the same float). *)
val to_string : Problem.t -> string

val to_file : string -> Problem.t -> unit
