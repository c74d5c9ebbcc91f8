(* The arena compile step: interning consistency against the provenance
   index it lowers, and differential equivalence of the arena-backed
   solvers against the retained seed implementations — on all three
   workload families (forest / star-schema / hardness-reduced). *)

open Util
module R = Relational
module D = Deleprop
module B = Setcover.Bitset

(* ---- instance generators ---- *)

let forest_prov seed =
  let rng = rng seed in
  let { Workload.Forest_family.problem = p; _ } =
    Workload.Forest_family.generate ~rng
      { Workload.Forest_family.default with
        num_relations = 4; tuples_per_relation = 6; num_queries = 3;
        deletion_fraction = 0.4 }
  in
  D.Provenance.build p

let random_prov seed =
  let rng = rng seed in
  let p =
    Workload.Random_family.generate ~rng
      { Workload.Random_family.default with
        num_dimensions = 3; fact_tuples = 8; dim_tuples = 4; num_queries = 3;
        deletion_fraction = 0.4 }
  in
  D.Provenance.build p

let hard_prov seed =
  let rng = rng seed in
  let (h : D.Hardness.t), _ =
    Workload.Hard_family.generate ~rng
      { Workload.Hard_family.default with num_red = 4; num_blue = 4; num_sets = 5 }
  in
  D.Provenance.build h.D.Hardness.problem

let seeds = QCheck2.Gen.int_range 0 10_000

(* ---- interning consistency ---- *)

let strictly_ascending arr =
  let ok = ref true in
  for i = 1 to Array.length arr - 1 do
    if arr.(i - 1) >= arr.(i) then ok := false
  done;
  !ok

let check_arena_consistent prov =
  let a = D.Arena.build prov in
  Alcotest.(check int) "|D| source tuples"
    (R.Stuple.Map.cardinal prov.D.Provenance.containing)
    (D.Arena.num_stuples a);
  Alcotest.(check int) "|V| view tuples"
    (D.Vtuple.Set.cardinal (D.Provenance.all_vtuples prov))
    (D.Arena.num_vtuples a);
  (* id <-> tuple bijection *)
  Array.iteri
    (fun sid st -> Alcotest.(check int) "sid round-trip" sid (D.Arena.stuple_id a st))
    a.D.Arena.stuples;
  Array.iteri
    (fun vid vt -> Alcotest.(check int) "vid round-trip" vid (D.Arena.vtuple_id a vt))
    a.D.Arena.vtuples;
  (* witness rows = the witness map, in ascending id order *)
  Array.iteri
    (fun vid vt ->
      Alcotest.(check bool) "witness ascending" true (strictly_ascending a.D.Arena.witness.(vid));
      Alcotest.check stuple_set "witness row"
        (D.Provenance.witness_of prov vt)
        (D.Arena.to_stuple_set a (Array.to_list a.D.Arena.witness.(vid))))
    a.D.Arena.vtuples;
  (* containing rows = the containing map (witness inverted) *)
  Array.iteri
    (fun sid st ->
      Alcotest.(check bool) "containing ascending" true
        (strictly_ascending a.D.Arena.containing.(sid));
      Alcotest.check vtuple_set "containing row"
        (D.Provenance.vtuples_containing prov st)
        (Array.fold_left
           (fun acc vid -> D.Vtuple.Set.add a.D.Arena.vtuples.(vid) acc)
           D.Vtuple.Set.empty a.D.Arena.containing.(sid)))
    a.D.Arena.stuples;
  (* bad/preserved bitsets partition V and match the index *)
  let bits_of s =
    let b = B.create (D.Arena.num_vtuples a) in
    D.Vtuple.Set.iter (fun vt -> B.add b (D.Arena.vtuple_id a vt)) s;
    b
  in
  Alcotest.(check bool) "bad bitset" true
    (B.equal a.D.Arena.bad (bits_of prov.D.Provenance.bad));
  Alcotest.(check bool) "preserved bitset" true
    (B.equal a.D.Arena.preserved (bits_of prov.D.Provenance.preserved));
  Alcotest.(check bool) "disjoint" true (B.disjoint a.D.Arena.bad a.D.Arena.preserved);
  Alcotest.(check bool) "cover V" true
    (B.equal (B.union a.D.Arena.bad a.D.Arena.preserved) (B.full (D.Arena.num_vtuples a)));
  (* weights *)
  Array.iteri
    (fun vid vt ->
      check_float "weight"
        (D.Weights.get prov.D.Provenance.problem.D.Problem.weights vt)
        a.D.Arena.weights.(vid))
    a.D.Arena.vtuples;
  (* candidates and preserved degrees agree with the set-based answers *)
  Alcotest.check stuple_set "candidate ids"
    (D.Provenance.candidates prov)
    (D.Arena.to_stuple_set a (Array.to_list (D.Arena.candidate_ids a)));
  Array.iteri
    (fun sid st ->
      let expect =
        D.Vtuple.Set.cardinal
          (D.Vtuple.Set.inter (D.Provenance.vtuples_containing prov st)
             prov.D.Provenance.preserved)
      in
      Alcotest.(check int) "preserved degree" expect (D.Arena.preserved_degree a sid))
    a.D.Arena.stuples

let test_arena_consistent_forest () = check_arena_consistent (forest_prov 11)
let test_arena_consistent_random () = check_arena_consistent (random_prov 12)
let test_arena_consistent_hard () = check_arena_consistent (hard_prov 13)

let test_arena_unknown_tuples () =
  let prov = forest_prov 5 in
  let a = D.Arena.build prov in
  let ghost = R.Stuple.make "nosuchrel" (R.Tuple.strs [ "x" ]) in
  Alcotest.(check bool) "stuple_id raises" true
    (try ignore (D.Arena.stuple_id a ghost); false with Invalid_argument _ -> true);
  Alcotest.(check bool) "find_live_sid misses" true
    (D.Arena.find_live_sid a ghost = None)

let prop_arena_consistent =
  qcheck ~count:25 "arena: interning consistent on random forests" seeds (fun seed ->
      check_arena_consistent (forest_prov seed);
      true)

(* ---- differential: arena solvers vs seed implementations ---- *)

let pd_equal (a : D.Primal_dual.result) (b : D.Primal_dual.result) =
  R.Stuple.Set.equal a.D.Primal_dual.deletion b.D.Primal_dual.deletion
  && feq a.D.Primal_dual.outcome.D.Side_effect.cost b.D.Primal_dual.outcome.D.Side_effect.cost
  && a.D.Primal_dual.outcome.D.Side_effect.feasible
     = b.D.Primal_dual.outcome.D.Side_effect.feasible
  && feq a.D.Primal_dual.dual_value b.D.Primal_dual.dual_value
  && a.D.Primal_dual.forest_case = b.D.Primal_dual.forest_case
  && D.Vtuple.Map.equal feq a.D.Primal_dual.duals b.D.Primal_dual.duals

let lowdeg_equal (a : D.Lowdeg.result) (b : D.Lowdeg.result) =
  R.Stuple.Set.equal a.D.Lowdeg.deletion b.D.Lowdeg.deletion
  && feq a.D.Lowdeg.outcome.D.Side_effect.cost b.D.Lowdeg.outcome.D.Side_effect.cost
  && a.D.Lowdeg.outcome.D.Side_effect.feasible = b.D.Lowdeg.outcome.D.Side_effect.feasible
  && a.D.Lowdeg.tau = b.D.Lowdeg.tau
  && a.D.Lowdeg.pruned_wide = b.D.Lowdeg.pruned_wide

let pd_matches prov =
  pd_equal (D.Primal_dual.solve prov) (Reference.Pd_reference.solve_reference prov)
  && pd_equal
       (D.Primal_dual.solve ~reverse_delete:false prov)
       (Reference.Pd_reference.solve_reference ~reverse_delete:false prov)

let prop_pd_forest =
  qcheck ~count:60 "primal-dual: arena = seed on forests" seeds (fun seed ->
      pd_matches (forest_prov seed))

let prop_pd_random =
  qcheck ~count:40 "primal-dual: arena = seed on star schemas" seeds (fun seed ->
      pd_matches (random_prov seed))

let prop_pd_hard =
  qcheck ~count:40 "primal-dual: arena = seed on hard family" seeds (fun seed ->
      pd_matches (hard_prov seed))

let lowdeg_matches prov =
  lowdeg_equal (D.Lowdeg.solve prov) (Reference.Lowdeg_reference.solve_reference prov)
  && lowdeg_equal
       (D.Lowdeg.solve ~prune_wide:false prov)
       (Reference.Lowdeg_reference.solve_reference ~prune_wide:false prov)

let prop_lowdeg_forest =
  qcheck ~count:30 "lowdeg: arena sweep = seed sweep on forests" seeds (fun seed ->
      lowdeg_matches (forest_prov seed))

let prop_lowdeg_random =
  qcheck ~count:20 "lowdeg: arena sweep = seed sweep on star schemas" seeds (fun seed ->
      lowdeg_matches (random_prov seed))

let prop_lowdeg_hard =
  qcheck ~count:20 "lowdeg: arena sweep = seed sweep on hard family" seeds (fun seed ->
      lowdeg_matches (hard_prov seed))

let prop_lowdeg_domains =
  (* the parallel sweep partitions the same τ list: identical result *)
  qcheck ~count:10 "lowdeg: domains=2 = sequential" seeds (fun seed ->
      let prov = forest_prov seed in
      lowdeg_equal (D.Lowdeg.solve ~domains:2 prov) (D.Lowdeg.solve ~domains:1 prov))

let rb_solution_equal a b =
  match a, b with
  | None, None -> true
  | Some (a : Setcover.Red_blue.solution), Some (b : Setcover.Red_blue.solution) ->
    a.Setcover.Red_blue.chosen = b.Setcover.Red_blue.chosen
    && feq a.Setcover.Red_blue.cost b.Setcover.Red_blue.cost
    && Setcover.Iset.equal a.Setcover.Red_blue.red_covered b.Setcover.Red_blue.red_covered
  | _ -> false

let prop_rb_approx =
  qcheck ~count:100 "red-blue: bitset solve_approx = seed" seeds (fun seed ->
      let rng = rng seed in
      let t =
        Workload.Rbsc_gen.red_blue ~rng
          ~num_red:(1 + Random.State.int rng 8)
          ~num_blue:(1 + Random.State.int rng 8)
          ~num_sets:(2 + Random.State.int rng 10)
          ~red_density:0.3 ~blue_density:0.4
      in
      rb_solution_equal
        (Setcover.Red_blue.solve_approx t)
        (Reference.Rb_reference.solve_approx_reference t))

let suite =
  [
    Alcotest.test_case "arena: consistent (forest)" `Quick test_arena_consistent_forest;
    Alcotest.test_case "arena: consistent (star schema)" `Quick test_arena_consistent_random;
    Alcotest.test_case "arena: consistent (hard family)" `Quick test_arena_consistent_hard;
    Alcotest.test_case "arena: unknown tuples" `Quick test_arena_unknown_tuples;
    prop_arena_consistent;
    prop_pd_forest;
    prop_pd_random;
    prop_pd_hard;
    prop_lowdeg_forest;
    prop_lowdeg_random;
    prop_lowdeg_hard;
    prop_lowdeg_domains;
    prop_rb_approx;
  ]
