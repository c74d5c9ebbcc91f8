(* Tests for the solvers: brute force, single-query, general approximation,
   primal-dual (Alg. 1), LowDeg (Algs. 2-3), DP (Alg. 4), balanced. *)

open Util
module R = Relational
module D = Deleprop

let forest_spec =
  { Workload.Forest_family.default with num_relations = 4; tuples_per_relation = 6;
    num_queries = 3; max_path_len = 3 }

let forest_problem seed =
  let rng = rng seed in
  (Workload.Forest_family.generate ~rng forest_spec).Workload.Forest_family.problem

let pivot_problem seed =
  let rng = rng seed in
  Workload.Pivot_family.generate ~rng
    { Workload.Pivot_family.default with depth = 3; tuples_per_relation = 6 }

let star_problem seed =
  let rng = rng seed in
  Workload.Random_family.generate ~rng
    { Workload.Random_family.default with fact_tuples = 8; dim_tuples = 4; num_queries = 3 }

let seeds = QCheck2.Gen.int_range 0 10_000

(* ---- brute force engines agree ---- *)

let prop_brute_engines_agree =
  qcheck ~count:40 "branch-and-bound = subset enumeration" seeds (fun seed ->
      let p = forest_problem seed in
      let prov = D.Provenance.build p in
      if R.Stuple.Set.cardinal (D.Provenance.candidates prov) > 14 then true
      else
        match D.Brute.solve prov, Reference.Solvers_reference.solve_enum prov with
        | Some a, Some b ->
          feq a.D.Brute.outcome.D.Side_effect.cost b.D.Brute.outcome.D.Side_effect.cost
        | None, None -> true
        | _ -> false)

(* ---- feasibility of every solver ---- *)

let prop_all_solvers_feasible =
  qcheck ~count:60 "all solvers return feasible deletions" seeds (fun seed ->
      let p = forest_problem seed in
      let prov = D.Provenance.build p in
      let pd = D.Primal_dual.solve prov in
      let ld = D.Lowdeg.solve prov in
      let ga = D.General_approx.solve prov in
      let gm = D.Single_query.solve_greedy_multi (D.Arena.build prov) in
      pd.D.Primal_dual.outcome.D.Side_effect.feasible
      && ld.D.Lowdeg.outcome.D.Side_effect.feasible
      && (match ga with Some g -> g.D.General_approx.outcome.D.Side_effect.feasible | None -> false)
      && gm.D.Single_query.outcome.D.Side_effect.feasible)

let prop_star_solvers_feasible =
  qcheck ~count:40 "non-forest instances: solvers still feasible" seeds (fun seed ->
      let p = star_problem seed in
      let prov = D.Provenance.build p in
      let pd = D.Primal_dual.solve prov in
      let ga = D.General_approx.solve prov in
      pd.D.Primal_dual.outcome.D.Side_effect.feasible
      && (match ga with Some g -> g.D.General_approx.outcome.D.Side_effect.feasible | None -> false))

(* ---- primal-dual: Theorem 3 ratio and minimality ---- *)

let prop_primal_dual_ratio =
  qcheck ~count:60 "primal-dual within factor l on forest cases" seeds (fun seed ->
      let p = forest_problem seed in
      let prov = D.Provenance.build p in
      match D.Brute.solve prov with
      | None -> false
      | Some opt ->
        let pd = D.Primal_dual.solve prov in
        let l = float_of_int (D.Problem.max_arity p) in
        pd.D.Primal_dual.outcome.D.Side_effect.cost
        <= (l *. opt.D.Brute.outcome.D.Side_effect.cost) +. 1e-9)

let prop_primal_dual_minimal =
  qcheck ~count:40 "primal-dual solutions are inclusion-minimal" seeds (fun seed ->
      let p = forest_problem seed in
      let prov = D.Provenance.build p in
      let pd = D.Primal_dual.solve prov in
      R.Stuple.Set.for_all
        (fun t ->
          let without = R.Stuple.Set.remove t pd.D.Primal_dual.deletion in
          not (D.Side_effect.eval prov without).D.Side_effect.feasible)
        pd.D.Primal_dual.deletion)

let test_primal_dual_free_tuples () =
  (* tuples carrying no preserved view tuple are deleted for free *)
  let schema =
    R.Schema.Db.of_list [ R.Schema.make ~name:"A" ~attrs:[ "k"; "v" ] ~key:[ 0 ] ]
  in
  let db =
    R.Instance.of_alist schema [ ("A", [ R.Tuple.ints [ 1; 1 ]; R.Tuple.ints [ 2; 2 ] ]) ]
  in
  let q = Cq.Parser.query_of_string "Q(K, V) :- A(K, V)" in
  let p = D.Problem.make ~db ~queries:[ q ] ~deletions:[ ("Q", [ R.Tuple.ints [ 1; 1 ] ]) ] () in
  let prov = D.Provenance.build p in
  let pd = D.Primal_dual.solve prov in
  check_float "zero side effect" 0.0 pd.D.Primal_dual.outcome.D.Side_effect.cost;
  Alcotest.(check bool) "feasible" true pd.D.Primal_dual.outcome.D.Side_effect.feasible

(* ---- LowDeg: Theorem 4 ratio, Claim 2 prune bound ---- *)

let prop_lowdeg_ratio =
  qcheck ~count:60 "LowDegTreeVSETwo within 2*sqrt(||V||)" seeds (fun seed ->
      let p = forest_problem seed in
      let prov = D.Provenance.build p in
      match D.Brute.solve prov with
      | None -> false
      | Some opt ->
        let ld = D.Lowdeg.solve prov in
        let bound = D.Lowdeg.bound p in
        let oc = opt.D.Brute.outcome.D.Side_effect.cost in
        ld.D.Lowdeg.outcome.D.Side_effect.cost <= (bound *. oc) +. 1e-9
        || (feq oc 0.0 && feq ld.D.Lowdeg.outcome.D.Side_effect.cost 0.0))

let prop_lowdeg_prune_bound =
  (* Claim 2: |R'_>| < sqrt(||V||) * tau for every tau *)
  qcheck ~count:40 "Claim 2 prune bound" seeds (fun seed ->
      let p = forest_problem seed in
      let prov = D.Provenance.build p in
      let v = float_of_int (D.Problem.view_size p) in
      List.for_all
        (fun tau ->
          match D.Lowdeg.solve_with_tau prov ~tau with
          | None -> true
          | Some r -> float_of_int r.D.Lowdeg.pruned_wide <= (sqrt v *. float_of_int tau) +. 1e-9)
        [ 1; 2; 3; 5 ])

let test_lowdeg_infeasible_tau () =
  (* tau = 0 bars every tuple that has any preserved view tuple; build an
     instance where the only witness tuple is shared with a preserved tuple *)
  let p = Workload.Author_journal.scenario_q4 () in
  let prov = D.Provenance.build p in
  Alcotest.(check bool) "tau=0 infeasible" true (D.Lowdeg.solve_with_tau prov ~tau:0 = None);
  (* the sweep still succeeds *)
  let r = D.Lowdeg.solve prov in
  Alcotest.(check bool) "sweep feasible" true r.D.Lowdeg.outcome.D.Side_effect.feasible

(* ---- DP on pivot forests: exactness (Alg. 4) ---- *)

let prop_dp_exact =
  qcheck ~count:60 "DPTreeVSE = brute force on pivot forests" seeds (fun seed ->
      let p = pivot_problem seed in
      let prov = D.Provenance.build p in
      match D.Dp_tree.solve prov, D.Brute.solve prov with
      | Ok dp, Some opt ->
        feq dp.D.Dp_tree.outcome.D.Side_effect.cost opt.D.Brute.outcome.D.Side_effect.cost
        && dp.D.Dp_tree.outcome.D.Side_effect.feasible
        && feq dp.D.Dp_tree.optimum dp.D.Dp_tree.outcome.D.Side_effect.cost
      | _ -> false)

let prop_dp_balanced_exact =
  qcheck ~count:40 "balanced DP = balanced exact on pivot forests" seeds (fun seed ->
      let p = pivot_problem seed in
      let prov = D.Provenance.build p in
      match D.Balanced.solve_dp prov with
      | Error _ -> false
      | Ok dp ->
        let exact = D.Balanced.solve_exact prov in
        feq dp.D.Balanced.outcome.D.Side_effect.balanced_cost
          exact.D.Balanced.outcome.D.Side_effect.balanced_cost)

let test_dp_rejects_non_pivot () =
  (* star instances usually have no pivot structure; solve must not crash
     and must answer Ok or a structured error *)
  let p = star_problem 7 in
  let prov = D.Provenance.build p in
  match D.Dp_tree.solve prov with
  | Ok r -> Alcotest.(check bool) "if Ok then feasible" true r.D.Dp_tree.outcome.D.Side_effect.feasible
  | Error _ -> ()

(* ---- balanced ---- *)

let prop_balanced_exact_leq_standard =
  qcheck ~count:40 "balanced optimum <= standard optimum cost" seeds (fun seed ->
      let p = forest_problem seed in
      let prov = D.Provenance.build p in
      match D.Brute.solve prov with
      | None -> false
      | Some std ->
        let bal = D.Balanced.solve_exact prov in
        (* a feasible standard solution is a candidate balanced solution *)
        bal.D.Balanced.outcome.D.Side_effect.balanced_cost
        <= std.D.Brute.outcome.D.Side_effect.cost +. 1e-9)

let prop_balanced_general_sound =
  qcheck ~count:40 "balanced general approx >= exact" seeds (fun seed ->
      let p = forest_problem seed in
      let prov = D.Provenance.build p in
      let approx = D.Balanced.solve_general prov in
      let exact = D.Balanced.solve_exact prov in
      approx.D.Balanced.outcome.D.Side_effect.balanced_cost +. 1e-9
      >= exact.D.Balanced.outcome.D.Side_effect.balanced_cost)

(* ---- single query ---- *)

let test_single_query_exact () =
  let p = Workload.Author_journal.scenario_q4 () in
  let prov = D.Provenance.build p in
  match D.Single_query.solve prov with
  | Error e -> Alcotest.failf "unexpected: %a" D.Single_query.pp_error e
  | Ok r ->
    check_float "optimal single-tuple deletion" 1.0 r.D.Single_query.outcome.D.Side_effect.cost

let prop_single_query_optimal =
  qcheck ~count:60 "single-query single-deletion solver is optimal" seeds (fun seed ->
      let rng = rng seed in
      let p =
        Workload.Random_family.generate_single ~rng
          { Workload.Random_family.default with fact_tuples = 8; dim_tuples = 4 }
      in
      let prov = D.Provenance.build p in
      if D.Vtuple.Set.is_empty prov.D.Provenance.bad then true
      else
        match D.Single_query.solve prov, D.Brute.solve prov with
        | Ok r, Some opt ->
          feq r.D.Single_query.outcome.D.Side_effect.cost opt.D.Brute.outcome.D.Side_effect.cost
        | Error _, _ -> false
        | _, None -> false)

let test_single_query_refusals () =
  let p = forest_problem 3 in
  let prov = D.Provenance.build p in
  (match D.Single_query.solve prov with
  | Error (D.Single_query.Not_single_query _) -> ()
  | Error (D.Single_query.Not_single_deletion _) -> ()
  | Ok _ -> Alcotest.fail "expected refusal on multi-query instance")

(* ---- general approx: Claim 1 bound ---- *)

let prop_general_approx_claim1 =
  qcheck ~count:60 "general approximation within Claim 1 bound" seeds (fun seed ->
      let p = star_problem seed in
      let prov = D.Provenance.build p in
      match D.Brute.solve prov, D.General_approx.solve prov with
      | Some opt, Some ga ->
        let oc = opt.D.Brute.outcome.D.Side_effect.cost in
        ga.D.General_approx.outcome.D.Side_effect.cost
        <= (ga.D.General_approx.claimed_bound *. oc) +. 1e-9
        || (feq oc 0.0 && feq ga.D.General_approx.outcome.D.Side_effect.cost 0.0)
      | _ -> false)

let suite =
  [
    prop_brute_engines_agree;
    prop_all_solvers_feasible;
    prop_star_solvers_feasible;
    prop_primal_dual_ratio;
    prop_primal_dual_minimal;
    Alcotest.test_case "primal-dual: free tuples" `Quick test_primal_dual_free_tuples;
    prop_lowdeg_ratio;
    prop_lowdeg_prune_bound;
    Alcotest.test_case "lowdeg: infeasible tau, feasible sweep" `Quick test_lowdeg_infeasible_tau;
    prop_dp_exact;
    prop_dp_balanced_exact;
    Alcotest.test_case "dp: non-pivot instances handled" `Quick test_dp_rejects_non_pivot;
    prop_balanced_exact_leq_standard;
    prop_balanced_general_sound;
    Alcotest.test_case "single query: Fig. 1 Q4" `Quick test_single_query_exact;
    prop_single_query_optimal;
    Alcotest.test_case "single query: refusals" `Quick test_single_query_refusals;
    prop_general_approx_claim1;
  ]
