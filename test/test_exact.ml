(* The exact tiers: the forest DP on the arena's rows in lockstep with
   the string-keyed seed kernel kept in
   test/reference/dp_tree_reference.ml, the structural forest test
   against the full DP, and the planner's tier ladder falling through
   crashed exact tiers. *)

open Util
module R = Relational
module D = Deleprop

let seeds = QCheck2.Gen.int_range 0 10_000

(* Non-dyadic random weights, so that a changed summation order would
   show in the bit-exact comparisons. *)
let reweigh seed (prov : D.Provenance.t) =
  let rng = rng (seed + 7) in
  let weights =
    D.Vtuple.Set.fold
      (fun vt w -> D.Weights.set w vt (0.1 *. float_of_int (1 + Random.State.int rng 30)))
      (D.Provenance.all_vtuples prov) D.Weights.uniform
  in
  let p = prov.D.Provenance.problem in
  D.Provenance.build
    (D.Problem.make ~db:p.D.Problem.db ~queries:p.D.Problem.queries ~weights
       ~deletions:
         (List.map
            (fun (q, ts) -> (q, R.Tuple.Set.elements ts))
            (D.Smap.bindings p.D.Problem.deletions))
       ())

(* A tombstoned session over a few commits that delete random tuples
   and re-insert earlier ones, re-targeted at a random request after
   each: the re-stamped session arenas, dead slots and all (what the
   planner's whole-instance fallback solves), and every active
   component of each, materialized. *)
let tombstoned family seed =
  let p = (family seed).D.Provenance.problem in
  let rng = rng (seed + 31) in
  let eng = Engine.create ~domains:1 p.D.Problem.db p.D.Problem.queries in
  let pool = ref [] and sessions = ref [] and shards = ref [] in
  for step = 1 to 4 do
    let deletes =
      match R.Instance.stuples (Engine.db eng) with
      | [] -> R.Stuple.Set.empty
      | sts -> R.Stuple.Set.singleton (List.nth sts (Random.State.int rng (List.length sts)))
    in
    let inserts =
      match !pool with
      | st :: rest when step mod 2 = 0 ->
        pool := rest;
        R.Stuple.Set.singleton st
      | _ -> R.Stuple.Set.empty
    in
    let applied = Engine.apply_delta eng (D.Delta.make ~deletes ~inserts ()) in
    pool := R.Stuple.Set.elements applied.D.Delta.deletes @ !pool;
    let prov, arena = Engine.index eng in
    match Test_engine.random_requests rng prov with
    | [] -> ()
    | reqs ->
      let a = Result.get_ok (D.Arena.with_requests arena reqs) in
      sessions := a :: !sessions;
      Array.iter
        (fun ps -> shards := (D.Arena.materialize a ps).D.Arena.arena :: !shards)
        (D.Component_index.active (Engine.component_index eng) a)
  done;
  Engine.close eng;
  (!sessions, !shards)

let tombstoned_shards family seed = snd (tombstoned family seed)

let bits = Int64.bits_of_float

let outcome_equal (a : D.Side_effect.outcome) (b : D.Side_effect.outcome) =
  R.Stuple.Set.equal a.D.Side_effect.deleted b.D.Side_effect.deleted
  && D.Vtuple.Set.equal a.D.Side_effect.side_effect b.D.Side_effect.side_effect
  && D.Vtuple.Set.equal a.D.Side_effect.residual_bad b.D.Side_effect.residual_bad
  && a.D.Side_effect.feasible = b.D.Side_effect.feasible
  && bits a.D.Side_effect.cost = bits b.D.Side_effect.cost
  && bits a.D.Side_effect.balanced_cost = bits b.D.Side_effect.balanced_cost

let node_equal (ka, (a : D.Decomposition.forest_node))
    (kb, (b : D.Decomposition.forest_node)) =
  String.equal ka kb
  && Option.equal String.equal a.D.Decomposition.fn_parent b.D.Decomposition.fn_parent
  && a.D.Decomposition.fn_depth = b.D.Decomposition.fn_depth
  && a.D.Decomposition.fn_cut = b.D.Decomposition.fn_cut
  && bits a.D.Decomposition.fn_value = bits b.D.Decomposition.fn_value
  && bits a.D.Decomposition.fn_slack = bits b.D.Decomposition.fn_slack

let tree_equal (a : D.Decomposition.forest_tree) (b : D.Decomposition.forest_tree) =
  String.equal a.D.Decomposition.ft_pivot b.D.Decomposition.ft_pivot
  && List.equal node_equal a.D.Decomposition.ft_nodes b.D.Decomposition.ft_nodes

let dp_equal (a : D.Dp_tree.result) (b : D.Dp_tree.result) =
  R.Stuple.Set.equal a.D.Dp_tree.deletion b.D.Dp_tree.deletion
  && List.equal R.Stuple.equal a.D.Dp_tree.pivots b.D.Dp_tree.pivots
  && bits a.D.Dp_tree.optimum = bits b.D.Dp_tree.optimum
  && outcome_equal a.D.Dp_tree.outcome b.D.Dp_tree.outcome
  && List.equal tree_equal a.D.Dp_tree.decomp b.D.Dp_tree.decomp

(* One arena: the structural test decides exactly what the DP decides,
   and the DP on the rows matches the seed kernel on the arena's index
   under both objectives. *)
let kernels_match (a : D.Arena.t) =
  let prov = D.Arena.provenance a in
  let same objective =
    match
      ( D.Dp_tree.solve_arena ~objective a,
        Reference.Dp_tree_reference.solve_reference ~objective prov )
    with
    | Ok a, Ok b -> dp_equal a b
    | Error a, Error b -> a = b
    | _ -> false
  in
  D.Dp_tree.applicable a = Result.is_ok (D.Dp_tree.solve_arena a)
  && same D.Dp_tree.Standard
  && same D.Dp_tree.Balanced

let pivot_prov seed = Test_decompose.pivot_prov ?num_roots:None ?tuples_per_relation:None seed

let prop_family name family =
  qcheck ~count:60 ("exact kernels = seed kernels (" ^ name ^ ")") seeds (fun seed ->
      let prov = family seed in
      kernels_match (D.Arena.build prov) && kernels_match (D.Arena.build (reweigh seed prov)))

let prop_tombstoned name family =
  qcheck ~count:15 ("exact kernels = seed kernels (tombstoned " ^ name ^ " shards)") seeds
    (fun seed ->
      let sessions, shards = tombstoned family seed in
      List.for_all kernels_match (sessions @ shards))

(* Only the forest DP attaches a decomposition, its recorded trees:
   every other registered solver's answer carries over to a fragment
   unchanged, so its [Solution.decomposition] is empty. Brute runs on
   shards under the planner's default exact threshold only. *)
let only_dp_records (a : D.Arena.t) =
  List.for_all
    (fun (module S : D.Solver.S) ->
      if String.equal S.name "brute" && Array.length (D.Arena.candidate_ids a) > 16
      then true
      else
        match S.solve a with
        | None -> true
        | Some sol -> (
          let trees = sol.D.Solution.decomposition in
          if not (String.equal S.name "dp-tree") then trees = []
          else
            match D.Dp_tree.solve_arena a with
            | Ok r -> trees <> [] && List.equal tree_equal trees r.D.Dp_tree.decomp
            | Error _ -> false))
    (D.Solvers.registered ())

let prop_only_dp_records name family =
  qcheck ~count:10 ("only dp-tree records trees (" ^ name ^ " shards)") seeds (fun seed ->
      List.for_all only_dp_records (tombstoned_shards family seed))

(* The pivot family must reach the DP, or the lockstep above compares
   two [Error]s only. *)
let test_pivot_reaches_dp () =
  let solved =
    List.length
      (List.filter
         (fun seed -> D.Dp_tree.applicable (D.Arena.build (pivot_prov seed)))
         (List.init 20 Fun.id))
  in
  Alcotest.(check bool) "most pivot instances are DP-applicable" true (solved >= 15)

(* ---- the tier ladder ---- *)

(* A one-component pivot forest the small tier takes: candidates under
   the exact threshold, and DP-applicable, so each tier below it could
   answer too. The first such instance of the pivot family. *)
let ladder_arena () =
  let fits seed =
    let p =
      Workload.Pivot_family.generate ~rng:(rng seed)
        { Workload.Pivot_family.depth = 3; num_roots = 1; tuples_per_relation = 3;
          num_queries = 2; deletion_fraction = 0.5 }
    in
    let a = D.Arena.build (D.Provenance.build p) in
    let candidates = Array.length (D.Arena.candidate_ids a) in
    if
      candidates >= 2 && candidates <= 16
      && Array.length (shatter a) = 1
      && D.Dp_tree.applicable a
    then Some a
    else None
  in
  match List.find_map fits (List.init 100 Fun.id) with
  | Some a -> a
  | None -> Alcotest.fail "no small pivot-forest shard in seeds 0-99"

let crashed (r : D.Planner.report) =
  List.map
    (fun (f : D.Portfolio.failure) ->
      match f.D.Portfolio.reason with
      | D.Portfolio.Crashed _ -> f.D.Portfolio.algorithm
      | D.Portfolio.Timed_out -> f.D.Portfolio.algorithm ^ " (timed out)")
    r.D.Planner.failures

let test_ladder_fall_through () =
  let a = ladder_arena () in
  let solve () =
    match D.Planner.solve ~domains:1 a with
    | { D.Planner.shards = [ d ]; _ } as r -> (r, d)
    | _ -> Alcotest.fail "expected one shard"
  in
  let armed = [ "solver.brute"; "solver.dp-tree" ] in
  (* [reset] rather than [clear]: an environment arming of these sites
     comes back for the tests that follow *)
  Fun.protect ~finally:D.Failpoint.reset (fun () ->
      List.iter D.Failpoint.clear armed;
      let r, d = solve () in
      Alcotest.(check string) "unarmed: brute answers" "brute" d.D.Planner.winner;
      Alcotest.(check bool) "unarmed: small tier" true
        (d.D.Planner.classification = D.Planner.Exact_small);
      Alcotest.(check (list string)) "unarmed: no failures" [] (crashed r);
      let optimum = d.D.Planner.cost in
      D.Failpoint.set "solver.brute" D.Failpoint.Raise;
      let r, d = solve () in
      Alcotest.(check string) "brute crashed: dp-tree answers" "dp-tree" d.D.Planner.winner;
      Alcotest.(check bool) "brute crashed: forest tier" true
        (d.D.Planner.classification = D.Planner.Exact_forest);
      Alcotest.(check bool) "brute crashed: certificate Exact" true d.D.Planner.exact;
      check_float "brute crashed: same optimum" optimum d.D.Planner.cost;
      Alcotest.(check (list string)) "brute crashed: its failure recorded" [ "brute" ]
        (crashed r);
      D.Failpoint.set "solver.dp-tree" D.Failpoint.Raise;
      let r, d = solve () in
      Alcotest.(check bool) "both crashed: approximate tier" true
        (d.D.Planner.classification = D.Planner.Approximate);
      Alcotest.(check bool) "both crashed: an approximate solver answers" true
        (List.mem d.D.Planner.winner
           [ "primal-dual"; "lowdeg"; "general"; "greedy" ]);
      Alcotest.(check bool) "both crashed: not degraded" false d.D.Planner.degraded;
      Alcotest.(check (list string)) "both crashed: both failures, in ladder order"
        [ "brute"; "dp-tree" ] (crashed r))

let suite =
  [
    Alcotest.test_case "pivot family reaches the DP" `Quick test_pivot_reaches_dp;
    prop_family "forest" Test_decompose.forest_prov;
    prop_family "pivot" pivot_prov;
    prop_family "random star" Test_decompose.random_prov;
    prop_tombstoned "forest" Test_decompose.forest_prov;
    prop_tombstoned "pivot" pivot_prov;
    prop_tombstoned "random star" Test_decompose.random_prov;
    prop_only_dp_records "pivot" pivot_prov;
    prop_only_dp_records "random star" Test_decompose.random_prov;
    Alcotest.test_case "ladder: crashed exact tiers fall through" `Quick
      test_ladder_fall_through;
  ]
