(* Tests for the phase-3 substrates: containment/minimization, incremental
   maintenance, join planning, bounded deletion, problem files, LP
   rounding, statistics. *)

open Util
module R = Relational
module D = Deleprop
module SC = Setcover

let parse = Cq.Parser.query_of_string

(* ---- containment / equivalence / minimization ---- *)

let test_containment_basic () =
  (* Q1 = R(X,Y),R(Y,Z) (paths of length 2); Q2 = R(X,Y) heads differ in
     arity: not comparable. Use same-arity examples. *)
  let q_path = parse "Q(X, Z) :- R(X, Y), R(Y, Z)" in
  let q_edge_pair = parse "Q(X, Z) :- R(X, Y1), R(Y2, Z)" in
  (* every 2-path is also a pair of edges: q_path ⊆ q_edge_pair *)
  Alcotest.(check bool) "path ⊆ pair" true (Cq.Containment.contained q_path q_edge_pair);
  Alcotest.(check bool) "pair ⊄ path" false (Cq.Containment.contained q_edge_pair q_path);
  Alcotest.(check bool) "not equivalent" false (Cq.Containment.equivalent q_path q_edge_pair)

let test_containment_constants () =
  let q_any = parse "Q(X) :- R(X, Y)" in
  let q_pin = parse "Q(X) :- R(X, tag)" in
  Alcotest.(check bool) "pinned ⊆ any" true (Cq.Containment.contained q_pin q_any);
  Alcotest.(check bool) "any ⊄ pinned" false (Cq.Containment.contained q_any q_pin)

let test_containment_self () =
  let q = parse "Q(X, Z) :- R(X, Y), S(Y, Z)" in
  Alcotest.(check bool) "q ≡ q" true (Cq.Containment.equivalent q q)

let test_minimize_redundant_atom () =
  (* R(X,Y), R(X,Y2): the second atom is subsumed (map Y2 -> Y) *)
  let q = parse "Q(X) :- R(X, Y), R(X, Y2)" in
  let m = Cq.Containment.minimize q in
  Alcotest.(check int) "one atom survives" 1 (List.length m.Cq.Query.body);
  Alcotest.(check bool) "equivalent to original" true (Cq.Containment.equivalent q m)

let test_minimize_keeps_core () =
  (* no atom droppable: both atoms constrain the head *)
  let q = parse "Q(X, Z) :- R(X, Y), S(Y, Z)" in
  let m = Cq.Containment.minimize q in
  Alcotest.(check int) "core unchanged" 2 (List.length m.Cq.Query.body)

let test_dedupe () =
  let q1 = parse "Q1(X) :- R(X, Y)" in
  let q2 = parse "Q2(X) :- R(X, Z)" in
  (* renamed variable: equivalent *)
  let q3 = parse "Q3(X) :- S(X, Y)" in
  Alcotest.(check (list string)) "dedupe keeps first of each class" [ "Q1"; "Q3" ]
    (List.map (fun (q : Cq.Query.t) -> q.name) (Cq.Containment.dedupe [ q1; q2; q3 ]))

(* semantic check of containment on random data: if contained q1 q2 then
   answers(q1) ⊆ answers(q2) on every instance *)
let prop_containment_semantic =
  qcheck ~count:60 "containment is sound on random instances"
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let rng = rng seed in
      let schema =
        R.Schema.Db.of_list [ R.Schema.make ~name:"R" ~attrs:[ "x"; "y" ] ~key:[ 0; 1 ] ]
      in
      let db = ref (R.Instance.empty schema) in
      for _ = 1 to 10 do
        let t = R.Tuple.ints [ Random.State.int rng 4; Random.State.int rng 4 ] in
        try db := R.Instance.add !db "R" t with R.Relation.Key_violation _ -> ()
      done;
      let q_path = parse "Q(X, Z) :- R(X, Y), R(Y, Z)" in
      let q_pair = parse "Q(X, Z) :- R(X, Y1), R(Y2, Z)" in
      R.Tuple.Set.subset (Cq.Eval.evaluate !db q_path) (Cq.Eval.evaluate !db q_pair))

(* ---- incremental maintenance ---- *)

let random_star_db seed =
  let rng = rng seed in
  let p =
    Workload.Random_family.generate ~rng
      { Workload.Random_family.default with num_queries = 2; fact_tuples = 10; dim_tuples = 5 }
  in
  p

let prop_maintenance_correct =
  qcheck ~count:60 "incremental refresh = full re-evaluation"
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let rng2 = rng (seed + 1) in
      let p = random_star_db seed in
      let db = p.D.Problem.db in
      let dd =
        R.Instance.stuples db
        |> List.filter (fun _ -> Random.State.float rng2 1.0 < 0.15)
        |> R.Stuple.Set.of_list
      in
      List.for_all
        (fun (q : Cq.Query.t) ->
          let view = Cq.Eval.evaluate db q in
          let incremental = Cq.Maintain.refresh db q ~view dd in
          let full = Cq.Eval.evaluate (R.Instance.delete db dd) q in
          R.Tuple.Set.equal incremental full)
        p.D.Problem.queries)

let prop_maintenance_projection =
  (* multi-witness answers survive when only one derivation dies *)
  qcheck ~count:40 "maintenance respects multiple witnesses"
    QCheck2.Gen.(int_range 0 5_000)
    (fun seed ->
      let rng2 = rng (seed + 7) in
      let p = Workload.Author_journal.scenario_q3 () in
      let db = p.D.Problem.db in
      let q = Workload.Author_journal.q3 in
      let dd =
        R.Instance.stuples db
        |> List.filter (fun _ -> Random.State.bool rng2)
        |> R.Stuple.Set.of_list
      in
      let view = Cq.Eval.evaluate db q in
      R.Tuple.Set.equal
        (Cq.Maintain.refresh db q ~view dd)
        (Cq.Eval.evaluate (R.Instance.delete db dd) q))

let test_maintenance_empty_delta () =
  let p = Workload.Author_journal.scenario_q4 () in
  let db = p.D.Problem.db in
  let q = Workload.Author_journal.q4 in
  let view = Cq.Eval.evaluate db q in
  Alcotest.check tuple_set "no deletion, no change" view
    (Cq.Maintain.refresh db q ~view R.Stuple.Set.empty)

(* ---- join planning ---- *)

let test_plan_selective_first () =
  (* constant-bearing atom should come first even if listed last *)
  let schema =
    R.Schema.Db.of_list
      [ R.Schema.make ~name:"Big" ~attrs:[ "k"; "v" ] ~key:[ 0 ];
        R.Schema.make ~name:"Small" ~attrs:[ "k"; "v" ] ~key:[ 0 ] ]
  in
  let db =
    R.Instance.of_alist schema
      [ ("Big", List.init 50 (fun i -> R.Tuple.ints [ i; i mod 7 ]));
        ("Small", [ R.Tuple.ints [ 1; 5 ] ]) ]
  in
  let q = parse "Q(K, V, K2) :- Big(K, V), Small(K2, 5)" in
  let order = Cq.Plan.order db q in
  Alcotest.(check int) "selective atom first" 1 order.(0)

let prop_plan_preserves_semantics =
  qcheck ~count:60 "planned = naive evaluation" QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let p = random_star_db seed in
      List.for_all
        (fun (q : Cq.Query.t) ->
          let planned = Cq.Eval.evaluate ~planned:true p.D.Problem.db q in
          let naive = Cq.Eval.evaluate ~planned:false p.D.Problem.db q in
          R.Tuple.Set.equal planned naive
          &&
          (* witnesses also agree as multisets *)
          let norm l =
            List.map (fun (t, w) -> (t, Array.to_list w)) l |> List.sort compare
          in
          norm (Cq.Eval.matches ~planned:true p.D.Problem.db q)
          = norm (Cq.Eval.matches ~planned:false p.D.Problem.db q))
        p.D.Problem.queries)

(* ---- bounded deletion ---- *)

let test_bounded_fig1 () =
  let prov = D.Provenance.build (Workload.Author_journal.scenario_q4 ()) in
  (* k = 0: infeasible; k = 1: optimal cost 1 *)
  Alcotest.(check bool) "k=0 infeasible" true (D.Bounded.solve ~k:0 prov = None);
  (match D.Bounded.solve ~k:1 prov with
  | Some r -> check_float "k=1 cost" 1.0 r.D.Bounded.outcome.D.Side_effect.cost
  | None -> Alcotest.fail "k=1 should be feasible");
  Alcotest.(check (option int)) "min budget" (Some 1) (D.Bounded.min_budget prov)

let prop_bounded_matches_unbounded =
  qcheck ~count:40 "with k = |candidates|, bounded = unbounded optimum"
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let rng = rng seed in
      let { Workload.Forest_family.problem = p; _ } =
        Workload.Forest_family.generate ~rng
          { Workload.Forest_family.default with num_relations = 3; tuples_per_relation = 5 }
      in
      let prov = D.Provenance.build p in
      let k = R.Stuple.Set.cardinal (D.Provenance.candidates prov) in
      match D.Bounded.solve ~k prov, D.Brute.solve prov with
      | Some b, Some u ->
        feq b.D.Bounded.outcome.D.Side_effect.cost u.D.Brute.outcome.D.Side_effect.cost
      | None, None -> true
      | _ -> false)

let prop_bounded_monotone =
  qcheck ~count:30 "larger budgets never cost more" QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let rng = rng seed in
      let { Workload.Forest_family.problem = p; _ } =
        Workload.Forest_family.generate ~rng
          { Workload.Forest_family.default with num_relations = 3; tuples_per_relation = 5 }
      in
      let prov = D.Provenance.build p in
      let frontier = D.Bounded.frontier ~slack:3 prov in
      let costs = List.map (fun (_, r) -> r.D.Bounded.outcome.D.Side_effect.cost) frontier in
      let rec non_increasing = function
        | a :: (b :: _ as rest) -> a +. 1e-9 >= b && non_increasing rest
        | _ -> true
      in
      non_increasing costs)

(* ---- problem files ---- *)

let fig1_problem_text =
  {|
rel T1(AuName*, Journal*)
T1(Joe, TKDE)
T1(John, TKDE)
T1(Tom, TKDE)
T1(John, TODS)
rel T2(Journal*, Topic*, Papers)
T2(TKDE, XML, 30)
T2(TKDE, CUBE, 30)
T2(TODS, XML, 30)
query Q4(X, Y, Z) :- T1(X, Y), T2(Y, Z, W)
delete Q4(John, TKDE, XML)
weight Q4(John, TKDE, CUBE) 5
|}

let test_problem_file_parse () =
  let p = D.Problem_file.of_string fig1_problem_text in
  Alcotest.(check int) "db size" 7 (R.Instance.size p.D.Problem.db);
  Alcotest.(check int) "one deletion" 1 (D.Problem.deletion_size p);
  check_float "weight override" 5.0
    (D.Weights.get p.D.Problem.weights
       (D.Vtuple.make "Q4" (R.Tuple.strs [ "John"; "TKDE"; "CUBE" ])));
  (* the weighted optimum now avoids killing CUBE *)
  let prov = D.Provenance.build p in
  match D.Brute.solve prov with
  | Some r -> check_float "weighted optimum" 2.0 r.D.Brute.outcome.D.Side_effect.cost
  | None -> Alcotest.fail "expected solution"

let test_problem_file_roundtrip () =
  let p = D.Problem_file.of_string fig1_problem_text in
  let p2 = D.Problem_file.of_string (D.Problem_file.to_string p) in
  Alcotest.(check bool) "db equal" true (R.Instance.equal p.D.Problem.db p2.D.Problem.db);
  Alcotest.(check int) "same deletions" (D.Problem.deletion_size p) (D.Problem.deletion_size p2);
  check_float "same weight" 5.0
    (D.Weights.get p2.D.Problem.weights
       (D.Vtuple.make "Q4" (R.Tuple.strs [ "John"; "TKDE"; "CUBE" ])))

(* weights are written with the report's round-trip float printer *)
let test_problem_file_weights_roundtrip () =
  let text =
    fig1_problem_text
    ^ "weight Q4(Tom, TKDE, XML) 0.3333333333333333\n\
       weight Q4(Joe, TKDE, XML) 2.718281828459045\n"
  in
  let p = D.Problem_file.of_string text in
  let p2 = D.Problem_file.of_string (D.Problem_file.to_string p) in
  List.iter
    (fun (vt, w) ->
      Alcotest.(check bool)
        (Format.asprintf "%a reads back" D.Vtuple.pp vt)
        true
        (Float.equal w (D.Weights.get p2.D.Problem.weights vt)))
    [ (D.Vtuple.make "Q4" (R.Tuple.strs [ "Tom"; "TKDE"; "XML" ]), 1. /. 3.);
      (D.Vtuple.make "Q4" (R.Tuple.strs [ "Joe"; "TKDE"; "XML" ]), 2.718281828459045) ]

let test_problem_file_errors () =
  let fails text =
    Alcotest.(check bool) "rejected" true
      (try ignore (D.Problem_file.of_string text); false
       with D.Problem_file.Parse_error _ -> true)
  in
  fails "query Q(X) :-";                        (* bad query *)
  fails "rel T(a*)\nT(1)\ndelete Q(1)";         (* deletion on unknown query *)
  fails "rel T(a*)\nT(1)\nquery Q(X) :- T(X)\nweight Q(1) abc"  (* bad weight *)

(* ---- LP rounding for RBSC ---- *)

let rbsc_gen =
  QCheck2.Gen.(
    int_range 0 10_000 |> map (fun seed ->
        let rng = Util.rng seed in
        Workload.Rbsc_gen.red_blue ~rng ~num_red:(1 + Random.State.int rng 5)
          ~num_blue:(1 + Random.State.int rng 5)
          ~num_sets:(2 + Random.State.int rng 5)
          ~red_density:0.3 ~blue_density:0.4))

let prop_rounding_feasible =
  qcheck ~count:60 "LP rounding: feasible and bounded below by the LP" rbsc_gen
    (fun t ->
      match SC.Rounding.solve t with
      | None -> false
      | Some { solution; lp_bound } -> (
        match solution, SC.Red_blue.solve_exact t with
        | Some sol, Some opt ->
          SC.Red_blue.is_feasible t sol.SC.Red_blue.chosen
          && lp_bound <= opt.SC.Red_blue.cost +. 1e-6
          && sol.SC.Red_blue.cost +. 1e-9 >= lp_bound -. 1e-6
        | None, None -> true
        | _ -> false))

(* ---- stats ---- *)

let test_stats () =
  let prov = D.Provenance.build (Workload.Author_journal.scenario_q4 ()) in
  let s = D.Stats.compute prov in
  Alcotest.(check int) "relations" 2 s.D.Stats.num_relations;
  Alcotest.(check int) "db size" 7 s.D.Stats.db_size;
  Alcotest.(check int) "l" 3 s.D.Stats.max_arity;
  Alcotest.(check int) "view size" 7 s.D.Stats.view_size;
  Alcotest.(check int) "candidates" 2 s.D.Stats.num_candidates;
  Alcotest.(check int) "witness sizes" 2 s.D.Stats.witness_max;
  Alcotest.(check bool) "forest" true s.D.Stats.forest_case;
  (* CSV row has as many fields as the header *)
  let fields s = List.length (String.split_on_char ',' s) in
  Alcotest.(check int) "csv arity" (fields D.Stats.csv_header) (fields (D.Stats.to_csv s))

let suite =
  [
    Alcotest.test_case "containment: path vs pair" `Quick test_containment_basic;
    Alcotest.test_case "containment: constants" `Quick test_containment_constants;
    Alcotest.test_case "containment: reflexive" `Quick test_containment_self;
    Alcotest.test_case "minimize: drops subsumed atom" `Quick test_minimize_redundant_atom;
    Alcotest.test_case "minimize: keeps core" `Quick test_minimize_keeps_core;
    Alcotest.test_case "dedupe equivalent queries" `Quick test_dedupe;
    prop_containment_semantic;
    prop_maintenance_correct;
    prop_maintenance_projection;
    Alcotest.test_case "maintenance: empty delta" `Quick test_maintenance_empty_delta;
    Alcotest.test_case "plan: selective atom first" `Quick test_plan_selective_first;
    prop_plan_preserves_semantics;
    Alcotest.test_case "bounded: Fig. 1 budgets" `Quick test_bounded_fig1;
    prop_bounded_matches_unbounded;
    prop_bounded_monotone;
    Alcotest.test_case "problem file: parse + weighted optimum" `Quick test_problem_file_parse;
    Alcotest.test_case "problem file: roundtrip" `Quick test_problem_file_roundtrip;
    Alcotest.test_case "problem file: weights read back" `Quick
      test_problem_file_weights_roundtrip;
    Alcotest.test_case "problem file: errors" `Quick test_problem_file_errors;
    prop_rounding_feasible;
    Alcotest.test_case "stats: Fig. 1" `Quick test_stats;
  ]
