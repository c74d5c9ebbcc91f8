(* Tests for phase-4 substrates: multicut on trees, insertion propagation,
   the solver portfolio. *)

open Util
module R = Relational
module D = Deleprop
module H = Hypergraph

(* ---- multicut on trees ---- *)

let e u v cost = { H.Multicut.u; v; cost }

let test_multicut_path () =
  (* path a-b-c-d, pair (a, d): cut the cheapest edge *)
  let edges = [ e "a" "b" 3.0; e "b" "c" 1.0; e "c" "d" 2.0 ] in
  match H.Multicut.solve ~edges ~pairs:[ ("a", "d") ] with
  | Error _ -> Alcotest.fail "expected success"
  | Ok r ->
    check_float "cuts the cheap edge" 1.0 r.H.Multicut.cost;
    Alcotest.(check int) "one edge" 1 (List.length r.H.Multicut.cut)

let test_multicut_star () =
  (* star: center x, leaves a b c; pairs (a,b), (b,c), (a,c): must cut at
     least two spokes *)
  let edges = [ e "x" "a" 1.0; e "x" "b" 1.0; e "x" "c" 1.0 ] in
  match H.Multicut.solve ~edges ~pairs:[ ("a", "b"); ("b", "c"); ("a", "c") ] with
  | Error _ -> Alcotest.fail "expected success"
  | Ok r ->
    Alcotest.(check bool) "cost at least 2" true (r.H.Multicut.cost >= 2.0 -. 1e-9);
    (* and within factor 2 of the optimum 2 *)
    Alcotest.(check bool) "within factor 2" true (r.H.Multicut.cost <= 4.0 +. 1e-9)

let test_multicut_errors () =
  let tri = [ e "a" "b" 1.0; e "b" "c" 1.0; e "c" "a" 1.0 ] in
  Alcotest.(check bool) "cycle rejected" true
    (H.Multicut.solve ~edges:tri ~pairs:[] = Error H.Multicut.Not_a_tree);
  Alcotest.(check bool) "unknown vertex" true
    (H.Multicut.solve ~edges:[ e "a" "b" 1.0 ] ~pairs:[ ("a", "z") ]
    = Error (H.Multicut.Unknown_vertex "z"));
  Alcotest.(check bool) "nonpositive cost" true
    (H.Multicut.solve ~edges:[ e "a" "b" 0.0 ] ~pairs:[] = Error H.Multicut.Nonpositive_cost)

let random_tree_instance seed =
  let rng = rng seed in
  let n = 4 + Random.State.int rng 6 in
  let name i = Printf.sprintf "v%d" i in
  let edges =
    List.init (n - 1) (fun i ->
        e (name (i + 1)) (name (Random.State.int rng (i + 1)))
          (1.0 +. float_of_int (Random.State.int rng 4)))
  in
  let pairs =
    List.init (1 + Random.State.int rng 4) (fun _ ->
        let a = Random.State.int rng n in
        let b = (a + 1 + Random.State.int rng (n - 1)) mod n in
        (name a, name b))
    |> List.filter (fun (a, b) -> a <> b)
  in
  (edges, pairs)

let prop_multicut_factor2 =
  qcheck ~count:80 "multicut: feasible, within factor 2, dual <= opt"
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let edges, pairs = random_tree_instance seed in
      match
        H.Multicut.solve ~edges ~pairs, H.Multicut.solve_exact ~pairs edges
      with
      | Ok approx, Ok exact ->
        approx.H.Multicut.cost +. 1e-9 >= exact.H.Multicut.cost
        && approx.H.Multicut.cost <= (2.0 *. exact.H.Multicut.cost) +. 1e-9
        && approx.H.Multicut.dual_value <= exact.H.Multicut.cost +. 1e-9
      | _ -> pairs = [])

(* ---- insertion propagation ---- *)

let test_insertion_reuses_existing () =
  (* Alice joins TKDE: only the author row must be inserted; the XML and
     CUBE topic rows already exist. Side-effect: the other topic appears. *)
  let p =
    D.Problem.make ~db:(Workload.Author_journal.db ())
      ~queries:[ Workload.Author_journal.q4 ] ~deletions:[] ()
  in
  match
    D.Insertion.solve p ~query:"Q4" ~target:(R.Tuple.strs [ "Alice"; "TKDE"; "XML" ])
  with
  | Error err -> Alcotest.failf "unexpected: %a" D.Insertion.pp_error err
  | Ok r ->
    Alcotest.(check int) "one insertion" 1 (R.Stuple.Set.cardinal r.D.Insertion.insertions);
    Alcotest.(check bool) "inserts the author row" true
      (R.Stuple.Set.mem (st "T1" [ "Alice"; "TKDE" ]) r.D.Insertion.insertions);
    (* (Alice, TKDE, CUBE) appears collaterally *)
    check_float "side effect 1" 1.0 r.D.Insertion.side_effect

let test_insertion_fresh_values () =
  (* a brand new journal: both rows must be inserted; with a fresh value
     for the papers column there is no way to avoid... and no collateral *)
  let p =
    D.Problem.make ~db:(Workload.Author_journal.db ())
      ~queries:[ Workload.Author_journal.q4 ] ~deletions:[] ()
  in
  match
    D.Insertion.solve p ~query:"Q4" ~target:(R.Tuple.strs [ "Bob"; "JDBM"; "GRAPHS" ])
  with
  | Error err -> Alcotest.failf "unexpected: %a" D.Insertion.pp_error err
  | Ok r ->
    Alcotest.(check int) "two insertions" 2 (R.Stuple.Set.cardinal r.D.Insertion.insertions);
    check_float "no collateral views" 0.0 r.D.Insertion.side_effect

let test_insertion_errors () =
  let p =
    D.Problem.make ~db:(Workload.Author_journal.db ())
      ~queries:[ Workload.Author_journal.q4 ] ~deletions:[] ()
  in
  (match D.Insertion.solve p ~query:"Q4" ~target:(R.Tuple.strs [ "John"; "TKDE"; "XML" ]) with
  | Error D.Insertion.Already_present -> ()
  | _ -> Alcotest.fail "expected Already_present");
  (match D.Insertion.solve p ~query:"Zed" ~target:(R.Tuple.strs [ "x" ]) with
  | Error (D.Insertion.Unknown_query _) -> ()
  | _ -> Alcotest.fail "expected Unknown_query");
  match D.Insertion.solve p ~query:"Q4" ~target:(R.Tuple.strs [ "x" ]) with
  | Error D.Insertion.Arity_mismatch -> ()
  | _ -> Alcotest.fail "expected Arity_mismatch"

let prop_insertion_sound =
  qcheck ~count:40 "insertion: target derivable afterwards, new_views correct"
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let rng2 = rng seed in
      let p =
        Workload.Random_family.generate ~rng:rng2
          { Workload.Random_family.default with num_queries = 2; fact_tuples = 6;
            dim_tuples = 3; deletion_fraction = 0.0 }
      in
      (* invent a target: take an existing fact key + 1000 to be fresh *)
      match p.D.Problem.queries with
      | q :: _ -> (
        let view = Cq.Eval.evaluate p.D.Problem.db q in
        if R.Tuple.Set.is_empty view then true
        else
          let sample = R.Tuple.Set.choose view in
          let target =
            R.Tuple.of_list
              (match R.Tuple.to_list sample with
              | _ :: rest -> R.Value.int 1000 :: rest
              | [] -> [])
          in
          match D.Insertion.solve p ~query:q.Cq.Query.name ~target with
          | Error _ -> true (* key conflicts are legitimate *)
          | Ok r ->
            let db' =
              R.Stuple.Set.fold
                (fun st acc -> R.Instance.add_stuple acc st)
                r.D.Insertion.insertions p.D.Problem.db
            in
            R.Tuple.Set.mem target (Cq.Eval.evaluate db' q))
      | [] -> false)

(* ---- portfolio ---- *)

let prop_portfolio_sound =
  qcheck ~count:40 "portfolio: all feasible, best = optimum when brute runs"
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let rng2 = rng seed in
      let { Workload.Forest_family.problem = p; _ } =
        Workload.Forest_family.generate ~rng:rng2
          { Workload.Forest_family.default with num_relations = 3; tuples_per_relation = 5 }
      in
      let prov = D.Provenance.build p in
      let solutions = D.Portfolio.solutions (D.Arena.build prov) in
      solutions <> []
      && List.for_all D.Solution.feasible solutions
      && (let costs = List.map D.Solution.cost solutions in
          List.sort compare costs = costs)
      &&
      let brute_ran =
        List.exists (fun (s : D.Solution.t) -> s.D.Solution.algorithm = "brute") solutions
      in
      (not brute_ran)
      ||
      match D.Brute.solve prov with
      | Some opt ->
        feq (D.Solution.cost (List.hd solutions)) opt.D.Brute.outcome.D.Side_effect.cost
      | None -> false)

let suite =
  [
    Alcotest.test_case "multicut: path" `Quick test_multicut_path;
    Alcotest.test_case "multicut: star" `Quick test_multicut_star;
    Alcotest.test_case "multicut: errors" `Quick test_multicut_errors;
    prop_multicut_factor2;
    Alcotest.test_case "insertion: reuses existing tuples" `Quick test_insertion_reuses_existing;
    Alcotest.test_case "insertion: fresh values" `Quick test_insertion_fresh_values;
    Alcotest.test_case "insertion: errors" `Quick test_insertion_errors;
    prop_insertion_sound;
    prop_portfolio_sound;
  ]
