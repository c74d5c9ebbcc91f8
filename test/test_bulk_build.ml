(* The bulk index build against the fold-based reference
   (test/reference/provenance_reference.ml, over the reference join):
   [Provenance.build] must produce the reference's maps,
   [Arena.of_problem] the arena that [Arena.build] compiles from them,
   and all three must reject an ambiguous witness naming the same view
   tuple — on the workload families and on the fuzz suite's random
   schemas and queries, each also with one body relation emptied. *)

open Util
module R = Relational
module D = Deleprop
module Ref = Reference.Provenance_reference

(* ---- instances ---- *)

(* [p] again with random weights on about a third of its view tuples *)
let weighted rng (p : D.Problem.t) =
  let weights =
    List.concat_map
      (fun (q : Cq.Query.t) ->
        R.Tuple.Set.elements (Cq.Eval.evaluate p.D.Problem.db q)
        |> List.filter_map (fun t ->
               if Random.State.int rng 3 = 0 then
                 Some
                   ( D.Vtuple.make q.Cq.Query.name t,
                     float_of_int (1 + Random.State.int rng 5) /. 4. )
               else None))
      p.D.Problem.queries
  in
  D.Problem.make ~db:p.D.Problem.db ~queries:p.D.Problem.queries
    ~deletions:
      (List.map
         (fun (q, ts) -> (q, R.Tuple.Set.elements ts))
         (D.Smap.bindings p.D.Problem.deletions))
    ~weights:(D.Weights.of_list weights) ()

(* one instance of a workload family picked by the seed, with or
   without ΔV, weighted or not *)
let family_problem seed =
  let rng = rng seed in
  let deletion_fraction = if seed mod 2 = 0 then 0.0 else 0.3 in
  let p =
    match seed / 2 mod 4 with
    | 0 ->
      (Workload.Forest_family.generate ~rng
         { Workload.Forest_family.default with
           num_relations = 4; tuples_per_relation = 6; num_queries = 3;
           project_free = Random.State.bool rng; deletion_fraction })
        .Workload.Forest_family.problem
    | 1 ->
      Workload.Pivot_family.generate ~rng
        { Workload.Pivot_family.default with
          depth = 3; num_roots = 3; tuples_per_relation = 8; deletion_fraction }
    | 2 ->
      Workload.Random_family.generate ~rng
        { Workload.Random_family.default with
          num_dimensions = 3; fact_tuples = 10; dim_tuples = 4; num_queries = 3;
          project_free = Random.State.bool rng; deletion_fraction }
    | _ ->
      Workload.Bibliography.generate ~rng
        { Workload.Bibliography.default with
          num_authors = 12; num_journals = 5; num_topics = 4; deletion_fraction }
  in
  if seed / 8 mod 2 = 1 then weighted rng p else p

(* the fuzz suite's random schema and data, with one to three random
   queries (self-joins, constants and projections included, so most are
   not key preserving) and a random ΔV out of their answers *)
let fuzz_problem seed =
  let rng = rng seed in
  let schema = Test_fuzz.random_schema rng in
  let db = Test_fuzz.random_db rng schema in
  let queries =
    List.filter_map
      (fun i -> Test_fuzz.random_query rng schema (Printf.sprintf "Q%d" i))
      (List.init (1 + Random.State.int rng 3) Fun.id)
  in
  let deletions =
    List.map
      (fun (q : Cq.Query.t) ->
        ( q.Cq.Query.name,
          R.Tuple.Set.elements (Cq.Eval.evaluate db q)
          |> List.filter (fun _ -> Random.State.int rng 3 = 0) ))
      queries
  in
  if queries = [] then None
  else
    Some
      (D.Problem.make ~db ~queries ~deletions ~allow_non_key_preserving:true ())

(* [p] with every tuple of one relation its queries read removed (the
   rng picks which), and ΔV cut to the answers that survive: a body
   relation with no tuples, which the build must plan and intern like
   any other *)
let with_empty_relation rng (p : D.Problem.t) =
  let rels =
    List.sort_uniq String.compare (List.concat_map Cq.Query.relations p.D.Problem.queries)
  in
  let rel = List.nth rels (Random.State.int rng (List.length rels)) in
  let db =
    R.Instance.fold
      (fun (st : R.Stuple.t) db -> if String.equal st.rel rel then R.Instance.remove db st else db)
      p.D.Problem.db p.D.Problem.db
  in
  let deletions =
    List.map
      (fun (q : Cq.Query.t) ->
        ( q.Cq.Query.name,
          R.Tuple.Set.elements
            (R.Tuple.Set.inter
               (Reference.Eval_reference.evaluate db q)
               (D.Problem.deletion p q.Cq.Query.name)) ))
      p.D.Problem.queries
  in
  D.Problem.make ~db ~queries:p.D.Problem.queries ~deletions ~weights:p.D.Problem.weights
    ~allow_non_key_preserving:true ()

(* ---- the comparison ---- *)

let check_maps tag (r : Ref.t) (p : D.Provenance.t) =
  Alcotest.(check bool) (tag ^ ": views") true
    (D.Smap.equal R.Tuple.Set.equal r.Ref.views p.D.Provenance.views);
  Alcotest.(check bool) (tag ^ ": witness") true
    (D.Vtuple.Map.equal R.Stuple.Set.equal r.Ref.witness p.D.Provenance.witness);
  Alcotest.(check bool) (tag ^ ": witness_path") true
    (D.Vtuple.Map.equal (List.equal R.Stuple.equal) r.Ref.witness_path
       p.D.Provenance.witness_path);
  Alcotest.(check bool) (tag ^ ": containing") true
    (R.Stuple.Map.equal D.Vtuple.Set.equal r.Ref.containing p.D.Provenance.containing);
  Alcotest.check vtuple_set (tag ^ ": bad") r.Ref.bad p.D.Provenance.bad;
  Alcotest.check vtuple_set (tag ^ ": preserved") r.Ref.preserved p.D.Provenance.preserved

let attempt f = match f () with v -> Ok v | exception D.Provenance.Ambiguous_witness vt -> Error vt

(* either all three builds raise the same [Ambiguous_witness], or the
   bulk maps equal the reference's and [of_problem] equals
   [Arena.build] of them field by field *)
let check_builds tag p =
  match
    ( attempt (fun () -> Ref.build p),
      attempt (fun () -> D.Provenance.build p),
      attempt (fun () -> D.Arena.of_problem p) )
  with
  | Ok r, Ok prov, Ok arena ->
    check_maps (tag ^ ": Provenance.build") r prov;
    check_maps (tag ^ ": of_problem's provenance") r (D.Arena.provenance arena);
    Alcotest.(check bool) (tag ^ ": of_problem's problem") true (arena.D.Arena.problem == p);
    Test_engine.check_arena_equal (tag ^ ": of_problem = build") arena (D.Arena.build prov)
  | Error a, Error b, Error c ->
    Alcotest.check vtuple (tag ^ ": Provenance.build's ambiguous answer") a b;
    Alcotest.check vtuple (tag ^ ": of_problem's ambiguous answer") a c
  | r, b, c ->
    let said = function Ok _ -> "built" | Error vt -> "raised on " ^ D.Vtuple.to_string vt in
    Alcotest.failf "%s: reference %s, Provenance.build %s, Arena.of_problem %s" tag
      (said r) (said b) (said c)

let seeds = QCheck2.Gen.int_range 0 100_000

(* [p], then [p] with one body relation emptied *)
let check_both tag seed p =
  check_builds tag p;
  check_builds (tag ^ ", one relation emptied") (with_empty_relation (rng (seed + 1)) p)

let prop_families =
  qcheck ~count:200 "bulk build = reference on the workload families" seeds (fun seed ->
      check_both (Printf.sprintf "family seed %d" seed) seed (family_problem seed);
      true)

let prop_fuzz =
  qcheck ~count:300 "bulk build = reference on random CQs" seeds (fun seed ->
      Option.iter (check_both (Printf.sprintf "fuzz seed %d" seed) seed) (fuzz_problem seed);
      true)

(* Fig. 1's Q3 is not key preserving: John reaches XML through TKDE and
   through TODS, so Q3(John, XML) has two witnesses — the only answer
   with two, so every build names it *)
let test_ambiguous_q3 () =
  let expect = D.Vtuple.make "Q3" (R.Tuple.strs [ "John"; "XML" ]) in
  List.iter
    (fun (scenario, p) ->
      let raises what f =
        match f () with
        | _ -> Alcotest.failf "%s: %s built an index" scenario what
        | exception D.Provenance.Ambiguous_witness vt ->
          Alcotest.check vtuple (scenario ^ ": " ^ what) expect vt;
          Alcotest.(check string) (scenario ^ ": printed") "Q3(John, XML)"
            (D.Vtuple.to_string vt)
      in
      raises "reference" (fun () -> ignore (Ref.build p));
      raises "Provenance.build" (fun () -> ignore (D.Provenance.build p));
      raises "Arena.of_problem" (fun () -> ignore (D.Arena.of_problem p)))
    [
      ("scenario_q3", Workload.Author_journal.scenario_q3 ());
      ("scenario_multi", Workload.Author_journal.scenario_multi ());
    ]

let suite =
  [
    Alcotest.test_case "ambiguous witness: Q3(John, XML)" `Quick test_ambiguous_q3;
    prop_families;
    prop_fuzz;
  ]
