(* Tests for the core problem/provenance/side-effect layer. *)

open Util
module R = Relational
module D = Deleprop

let parse = Cq.Parser.query_of_string

let schema =
  R.Schema.Db.of_list
    [
      R.Schema.make ~name:"T1" ~attrs:[ "a"; "b" ] ~key:[ 0; 1 ];
      R.Schema.make ~name:"T2" ~attrs:[ "b"; "c"; "d" ] ~key:[ 0; 1 ];
    ]

let db () =
  R.Instance.of_alist schema
    [
      ("T1", [ R.Tuple.strs [ "john"; "tkde" ]; R.Tuple.strs [ "joe"; "tkde" ];
               R.Tuple.strs [ "tom"; "tkde" ]; R.Tuple.strs [ "john"; "tods" ] ]);
      ("T2", [ R.Tuple.strs [ "tkde"; "xml"; "n" ]; R.Tuple.strs [ "tkde"; "cube"; "n" ];
               R.Tuple.strs [ "tods"; "xml"; "n" ] ]);
    ]

let q4 = parse "Q4(X, Y, Z) :- T1(X, Y), T2(Y, Z, W)"
let q3 = parse "Q3(X, Z) :- T1(X, Y), T2(Y, Z, W)"

(* ---- Problem.make validation ---- *)

let test_problem_rejects_non_kp () =
  Alcotest.(check bool) "q3 rejected" true
    (try ignore (D.Problem.make ~db:(db ()) ~queries:[ q3 ] ~deletions:[] ()); false
     with Invalid_argument _ -> true);
  (* explicit opt-out accepted *)
  ignore (D.Problem.make ~db:(db ()) ~queries:[ q3 ] ~deletions:[] ~allow_non_key_preserving:true ())

let test_problem_rejects_bad_deletion () =
  Alcotest.(check bool) "deletion outside view" true
    (try
       ignore
         (D.Problem.make ~db:(db ()) ~queries:[ q4 ]
            ~deletions:[ ("Q4", [ R.Tuple.strs [ "nobody"; "x"; "y" ] ]) ]
            ());
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "deletion on unknown query" true
    (try
       ignore (D.Problem.make ~db:(db ()) ~queries:[ q4 ] ~deletions:[ ("Zed", []) ] ());
       false
     with Invalid_argument _ -> true)

let test_problem_rejects_duplicates () =
  Alcotest.(check bool) "duplicate names" true
    (try ignore (D.Problem.make ~db:(db ()) ~queries:[ q4; q4 ] ~deletions:[] ()); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "empty query set" true
    (try ignore (D.Problem.make ~db:(db ()) ~queries:[] ~deletions:[] ()); false
     with Invalid_argument _ -> true)

let test_problem_sizes () =
  let p =
    D.Problem.make ~db:(db ()) ~queries:[ q4 ]
      ~deletions:[ ("Q4", [ R.Tuple.strs [ "john"; "tkde"; "xml" ] ]) ]
      ()
  in
  Alcotest.(check int) "max arity" 3 (D.Problem.max_arity p);
  Alcotest.(check int) "view size" 7 (D.Problem.view_size p);
  Alcotest.(check int) "deletion size" 1 (D.Problem.deletion_size p)

(* ---- Provenance ---- *)

let problem () =
  D.Problem.make ~db:(db ()) ~queries:[ q4 ]
    ~deletions:[ ("Q4", [ R.Tuple.strs [ "john"; "tkde"; "xml" ] ]) ]
    ()

let test_provenance_witness () =
  let prov = D.Provenance.build (problem ()) in
  let vt = D.Vtuple.make "Q4" (R.Tuple.strs [ "john"; "tkde"; "xml" ]) in
  Alcotest.check stuple_set "witness"
    (R.Stuple.Set.of_list [ st "T1" [ "john"; "tkde" ]; st "T2" [ "tkde"; "xml"; "n" ] ])
    (D.Provenance.witness_of prov vt)

let test_provenance_containing () =
  let prov = D.Provenance.build (problem ()) in
  let vts = D.Provenance.vtuples_containing prov (st "T2" [ "tkde"; "xml"; "n" ]) in
  Alcotest.(check int) "three view tuples through (tkde,xml)" 3 (D.Vtuple.Set.cardinal vts);
  (* a tuple of D in no witness still has an (empty) entry *)
  Alcotest.(check int) "tuple in no view" 0
    (D.Vtuple.Set.cardinal (D.Provenance.vtuples_containing prov (st "T2" [ "nowhere"; "x"; "y" ])))

let test_provenance_bad_preserved_partition () =
  let prov = D.Provenance.build (problem ()) in
  Alcotest.(check int) "bad" 1 (D.Vtuple.Set.cardinal prov.D.Provenance.bad);
  Alcotest.(check int) "preserved" 6 (D.Vtuple.Set.cardinal prov.D.Provenance.preserved);
  Alcotest.(check bool) "disjoint" true
    (D.Vtuple.Set.is_empty (D.Vtuple.Set.inter prov.D.Provenance.bad prov.D.Provenance.preserved))

let test_provenance_ambiguous () =
  let p =
    D.Problem.make ~db:(db ()) ~queries:[ q3 ] ~deletions:[] ~allow_non_key_preserving:true ()
  in
  Alcotest.(check bool) "ambiguous witness raises" true
    (try ignore (D.Provenance.build p); false with D.Provenance.Ambiguous_witness _ -> true)

let test_provenance_candidates () =
  let prov = D.Provenance.build (problem ()) in
  Alcotest.check stuple_set "candidates = bad witness"
    (R.Stuple.Set.of_list [ st "T1" [ "john"; "tkde" ]; st "T2" [ "tkde"; "xml"; "n" ] ])
    (D.Provenance.candidates prov)

(* ---- Side_effect: fast vs ground truth ---- *)

let test_side_effect_known () =
  let prov = D.Provenance.build (problem ()) in
  (* deleting T1(john, tkde) also kills (john, tkde, cube): side effect 1 *)
  let o = D.Side_effect.eval prov (R.Stuple.Set.singleton (st "T1" [ "john"; "tkde" ])) in
  Alcotest.(check bool) "feasible" true o.D.Side_effect.feasible;
  check_float "cost" 1.0 o.D.Side_effect.cost;
  (* deleting T2(tkde, xml) kills joe/tom... here joe and john: side effect 2 *)
  let o2 = D.Side_effect.eval prov (R.Stuple.Set.singleton (st "T2" [ "tkde"; "xml"; "n" ])) in
  check_float "cost 2" 2.0 o2.D.Side_effect.cost

let test_side_effect_infeasible () =
  let prov = D.Provenance.build (problem ()) in
  let o = D.Side_effect.eval prov R.Stuple.Set.empty in
  Alcotest.(check bool) "not feasible" false o.D.Side_effect.feasible;
  check_float "balanced = residual bad" 1.0 o.D.Side_effect.balanced_cost

let prop_fast_equals_ground_truth =
  qcheck ~count:100 "index-based evaluation = re-evaluation"
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let rng = rng seed in
      let { Workload.Forest_family.problem = p; _ } =
        Workload.Forest_family.generate ~rng
          { Workload.Forest_family.default with num_relations = 3; tuples_per_relation = 5 }
      in
      let prov = D.Provenance.build p in
      let all = R.Instance.stuples p.D.Problem.db in
      let dd = List.filter (fun _ -> Random.State.bool rng) all |> R.Stuple.Set.of_list in
      let fast = D.Side_effect.eval prov dd in
      let truth = D.Side_effect.eval_ground_truth p dd in
      D.Vtuple.Set.equal (Lazy.force fast.D.Side_effect.side_effect)
        (Lazy.force truth.D.Side_effect.side_effect)
      && D.Vtuple.Set.equal (Lazy.force fast.D.Side_effect.residual_bad)
           (Lazy.force truth.D.Side_effect.residual_bad)
      && feq fast.D.Side_effect.cost truth.D.Side_effect.cost
      && fast.D.Side_effect.feasible = truth.D.Side_effect.feasible
      && feq fast.D.Side_effect.balanced_cost truth.D.Side_effect.balanced_cost)

(* ---- Weights ---- *)

let test_weights () =
  let vt = D.Vtuple.make "Q" (R.Tuple.ints [ 1 ]) in
  let w = D.Weights.set (D.Weights.with_default 2.0) vt 5.0 in
  check_float "override" 5.0 (D.Weights.get w vt);
  check_float "default" 2.0 (D.Weights.get w (D.Vtuple.make "Q" (R.Tuple.ints [ 2 ])));
  check_float "total" 7.0
    (D.Weights.total w (D.Vtuple.Set.of_list [ vt; D.Vtuple.make "Q" (R.Tuple.ints [ 2 ]) ]))

let test_weighted_side_effect () =
  let base = problem () in
  let heavy = D.Vtuple.make "Q4" (R.Tuple.strs [ "john"; "tkde"; "cube" ]) in
  let p =
    D.Problem.make ~db:(db ()) ~queries:[ q4 ]
      ~deletions:[ ("Q4", [ R.Tuple.strs [ "john"; "tkde"; "xml" ] ]) ]
      ~weights:(D.Weights.set D.Weights.uniform heavy 10.0) ()
  in
  ignore base;
  let prov = D.Provenance.build p in
  let o = D.Side_effect.eval prov (R.Stuple.Set.singleton (st "T1" [ "john"; "tkde" ])) in
  check_float "weighted cost" 10.0 o.D.Side_effect.cost;
  (* the optimum now avoids the heavy tuple: deletes T2(tkde,xml) at cost 2 *)
  match D.Brute.solve prov with
  | Some r -> check_float "weighted optimum" 2.0 r.D.Brute.outcome.D.Side_effect.cost
  | None -> Alcotest.fail "expected solution"

(* ---- LP formulation ---- *)

let test_lp_lower_bound () =
  let prov = D.Provenance.build (problem ()) in
  match D.Lp_formulation.lower_bound prov, D.Brute.solve prov with
  | Some lb, Some opt ->
    Alcotest.(check bool) "lb <= opt" true
      (lb <= opt.D.Brute.outcome.D.Side_effect.cost +. 1e-6);
    Alcotest.(check bool) "lb > 0 here" true (lb > 0.0)
  | _ -> Alcotest.fail "expected both"

let test_lp_integral_point_feasible () =
  let prov = D.Provenance.build (problem ()) in
  let f = D.Lp_formulation.build prov in
  match D.Brute.solve prov with
  | None -> Alcotest.fail "expected solution"
  | Some r ->
    let x = D.Lp_formulation.point_of_deletion f prov r.D.Brute.deletion in
    Alcotest.(check (list string)) "integral optimum is LP-feasible" []
      (Lp.Problem.violations f.D.Lp_formulation.lp x);
    check_float "objective matches cost" r.D.Brute.outcome.D.Side_effect.cost
      (Lp.Problem.value f.D.Lp_formulation.lp x)

let prop_lp_lower_bound =
  qcheck ~count:40 "LP relaxation lower-bounds the optimum"
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let rng = rng seed in
      let { Workload.Forest_family.problem = p; _ } =
        Workload.Forest_family.generate ~rng
          { Workload.Forest_family.default with num_relations = 3; tuples_per_relation = 4;
            num_queries = 3 }
      in
      let prov = D.Provenance.build p in
      match D.Lp_formulation.lower_bound prov, D.Brute.solve prov with
      | Some lb, Some opt -> lb <= opt.D.Brute.outcome.D.Side_effect.cost +. 1e-6
      | None, _ -> false
      | _, None -> true)

let suite =
  [
    Alcotest.test_case "problem: rejects non-key-preserving" `Quick test_problem_rejects_non_kp;
    Alcotest.test_case "problem: rejects bad deletions" `Quick test_problem_rejects_bad_deletion;
    Alcotest.test_case "problem: rejects duplicates / empty" `Quick test_problem_rejects_duplicates;
    Alcotest.test_case "problem: sizes (l, ||V||, ||ΔV||)" `Quick test_problem_sizes;
    Alcotest.test_case "provenance: unique witness content" `Quick test_provenance_witness;
    Alcotest.test_case "provenance: containing index total" `Quick test_provenance_containing;
    Alcotest.test_case "provenance: bad/preserved partition" `Quick
      test_provenance_bad_preserved_partition;
    Alcotest.test_case "provenance: ambiguous witness detected" `Quick test_provenance_ambiguous;
    Alcotest.test_case "provenance: candidates" `Quick test_provenance_candidates;
    Alcotest.test_case "side-effect: known costs (Fig. 1)" `Quick test_side_effect_known;
    Alcotest.test_case "side-effect: infeasible / balanced" `Quick test_side_effect_infeasible;
    prop_fast_equals_ground_truth;
    Alcotest.test_case "weights: get/total" `Quick test_weights;
    Alcotest.test_case "weights: change the optimum" `Quick test_weighted_side_effect;
    Alcotest.test_case "lp: lower bound on Fig. 1" `Quick test_lp_lower_bound;
    Alcotest.test_case "lp: integral point feasible" `Quick test_lp_integral_point_feasible;
    prop_lp_lower_bound;
  ]
