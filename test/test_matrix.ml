(* The solver × workload-family matrix: one driver that runs every
   applicable solver over every generator family and asserts the shared
   invariants (feasibility, dominance by the exact optimum, bound
   satisfaction). Each (family, seed) pair becomes one alcotest case, so
   failures name the exact combination. *)

open Util
module R = Relational
module D = Deleprop

type family = {
  fname : string;
  gen : int -> D.Problem.t;   (* seed -> problem *)
}

let families =
  [
    {
      fname = "forest";
      gen =
        (fun seed ->
          (Workload.Forest_family.generate ~rng:(rng seed)
             { Workload.Forest_family.default with num_relations = 3; tuples_per_relation = 5 })
            .Workload.Forest_family.problem);
    };
    {
      fname = "pivot";
      gen =
        (fun seed ->
          Workload.Pivot_family.generate ~rng:(rng seed)
            { Workload.Pivot_family.default with depth = 3; tuples_per_relation = 5 });
    };
    {
      fname = "star";
      gen =
        (fun seed ->
          Workload.Random_family.generate ~rng:(rng seed)
            { Workload.Random_family.default with fact_tuples = 8; dim_tuples = 4;
              num_queries = 3 });
    };
    {
      fname = "star-skewed";
      gen =
        (fun seed ->
          Workload.Random_family.generate ~rng:(rng seed)
            { Workload.Random_family.default with fact_tuples = 8; dim_tuples = 4;
              num_queries = 3; skew = 1.2 });
    };
    {
      fname = "hard";
      gen =
        (fun seed ->
          (fst
             (Workload.Hard_family.generate ~rng:(rng seed)
                { Workload.Hard_family.default with num_red = 4; num_blue = 4; num_sets = 5 }))
            .D.Hardness.problem);
    };
    {
      fname = "cleaning";
      gen =
        (fun seed ->
          (Workload.Cleaning.generate ~rng:(rng seed) ~views_with_feedback:3
             { Workload.Cleaning.default with depth = 3; tuples_per_relation = 4 })
            .Workload.Cleaning.problem);
    };
  ]

let check_family f seed () =
  let p = f.gen seed in
  let prov = D.Provenance.build p in
  let opt =
    if R.Stuple.Set.cardinal (D.Provenance.candidates prov) <= 16 then
      Option.map
        (fun (r : D.Brute.result) -> r.D.Brute.outcome.D.Side_effect.cost)
        (D.Brute.solve prov)
    else None
  in
  let dominated name cost =
    match opt with
    | Some o ->
      Alcotest.(check bool)
        (Printf.sprintf "%s/%s >= optimum" f.fname name)
        true
        (cost +. 1e-9 >= o)
    | None -> ()
  in
  (* primal-dual *)
  let pd = D.Primal_dual.solve prov in
  Alcotest.(check bool) "pd feasible" true pd.D.Primal_dual.outcome.D.Side_effect.feasible;
  dominated "primal-dual" pd.D.Primal_dual.outcome.D.Side_effect.cost;
  (* lowdeg *)
  let ld = D.Lowdeg.solve prov in
  Alcotest.(check bool) "lowdeg feasible" true ld.D.Lowdeg.outcome.D.Side_effect.feasible;
  dominated "lowdeg" ld.D.Lowdeg.outcome.D.Side_effect.cost;
  (* general *)
  (match D.General_approx.solve prov with
  | Some ga ->
    Alcotest.(check bool) "general feasible" true
      ga.D.General_approx.outcome.D.Side_effect.feasible;
    dominated "general" ga.D.General_approx.outcome.D.Side_effect.cost;
    (match opt with
    | Some o when o > 1e-9 ->
      Alcotest.(check bool) "general within Claim 1" true
        (ga.D.General_approx.outcome.D.Side_effect.cost
        <= (ga.D.General_approx.claimed_bound *. o) +. 1e-9)
    | _ -> ())
  | None -> Alcotest.fail "general approx failed");
  (* dp where applicable: must equal the optimum *)
  (match (D.Dp_tree.solve prov, opt) with
  | Ok dp, Some o ->
    Alcotest.(check bool) "dp = optimum when applicable" true
      (Float.abs (dp.D.Dp_tree.outcome.D.Side_effect.cost -. o) < 1e-9)
  | _ -> ());
  (* balanced: exact <= standard optimum; general >= exact *)
  let bal = D.Balanced.solve_exact prov in
  (match opt with
  | Some o ->
    Alcotest.(check bool) "balanced <= standard optimum" true
      (bal.D.Balanced.outcome.D.Side_effect.balanced_cost <= o +. 1e-9)
  | None -> ());
  let balg = D.Balanced.solve_general prov in
  Alcotest.(check bool) "balanced general >= exact" true
    (balg.D.Balanced.outcome.D.Side_effect.balanced_cost +. 1e-9
    >= bal.D.Balanced.outcome.D.Side_effect.balanced_cost);
  (* source: greedy >= exact, both feasible *)
  (match (D.Source_side_effect.solve_exact prov, D.Source_side_effect.solve_greedy prov) with
  | Some se, Some sg ->
    Alcotest.(check bool) "source both feasible" true
      (se.D.Source_side_effect.outcome.D.Side_effect.feasible
      && sg.D.Source_side_effect.outcome.D.Side_effect.feasible);
    Alcotest.(check bool) "source greedy >= exact" true
      (sg.D.Source_side_effect.source_cost +. 1e-9 >= se.D.Source_side_effect.source_cost)
  | _ -> Alcotest.fail "source solvers failed");
  (* bounded at the minimal budget exists and is feasible *)
  (match D.Bounded.min_budget prov with
  | Some k -> (
    match D.Bounded.solve ~k prov with
    | Some b ->
      Alcotest.(check bool) "bounded feasible at min budget" true
        b.D.Bounded.outcome.D.Side_effect.feasible
    | None -> Alcotest.fail "bounded: min budget not solvable")
  | None -> Alcotest.fail "bounded: no feasible budget");
  (* portfolio: sequential and parallel agree on the best cost *)
  let a = D.Arena.build prov in
  let seq = List.hd (D.Portfolio.solutions a) in
  let par = List.hd (D.Portfolio.solutions ~domains:2 a) in
  Alcotest.(check bool) "portfolio par = seq best cost" true
    (Float.abs (D.Solution.cost seq -. D.Solution.cost par) < 1e-9)

let suite =
  List.concat_map
    (fun f ->
      List.map
        (fun seed ->
          Alcotest.test_case
            (Printf.sprintf "matrix: %s (seed %d)" f.fname seed)
            `Quick (check_family f seed))
        [ 1; 2; 3 ])
    families
