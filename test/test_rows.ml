(* The shard solvers on the arena's rows against their set-and-map
   oracles in test/reference/solvers_reference.ml: the forest-and-pivot
   test against the tuple graph, the Red-Blue and Positive-Negative
   images field for field, and brute, general, greedy and single-query
   bit for bit — on whole instances, on tombstoned session arenas (what
   the planner's whole-instance fallback solves) and on their shards. *)

open Util
module R = Relational
module D = Deleprop
module B = Setcover.Bitset
module Ref = Reference.Solvers_reference

let seeds = QCheck2.Gen.int_range 0 100_000
let bits = Int64.bits_of_float
let arrays_equal eq a b = Array.length a = Array.length b && Array.for_all2 eq a b

let live_vids (a : D.Arena.t) =
  Array.of_list (B.elements (B.union a.D.Arena.bad a.D.Arena.preserved))

(* the build suite's family and random-CQ instances, as arenas; a
   random CQ that is not key preserving has none *)
let instances seed =
  let arena p =
    match D.Arena.of_problem p with
    | a -> Some a
    | exception D.Provenance.Ambiguous_witness _ -> None
  in
  List.filter_map Fun.id
    [ arena (Test_bulk_build.family_problem seed);
      Option.bind (Test_bulk_build.fuzz_problem seed) arena ]

(* [a] after [n] commits, each tombstoning one random live tuple *)
let rec split rng (a : D.Arena.t) n =
  let live = List.filter (fun sid -> not (B.mem a.D.Arena.dead_s sid)) (List.init (D.Arena.num_stuples a) Fun.id) in
  if n = 0 || live = [] then a
  else
    let st = a.D.Arena.stuples.(List.nth live (Random.State.int rng (List.length live))) in
    split rng (D.Arena.tombstone a ~dd:(R.Stuple.Set.singleton st)) (n - 1)

(* the live vids of each component, ascending *)
let fragments (a : D.Arena.t) =
  let p = D.Arena.partition a in
  let by = Array.make p.D.Arena.num_components [] in
  for vid = D.Arena.num_vtuples a - 1 downto 0 do
    let c = p.D.Arena.comp_of_vid.(vid) in
    if c >= 0 then by.(c) <- vid :: by.(c)
  done;
  Array.map Array.of_list by

let shards (a : D.Arena.t) =
  Array.to_list
    (Array.map
       (fun ps -> (D.Arena.materialize a ps).D.Arena.arena)
       (D.Component_index.active (D.Component_index.build a) a))

(* ---- the forest-and-pivot test ---- *)

let pivots_agree a vids = D.Dp_tree.pivots a vids = Ref.pivots a vids

let prop_forest_test =
  qcheck ~count:300 "forest test on rows = tuple graph (families, random CQs)" seeds
    (fun seed -> List.for_all (fun a -> pivots_agree a (live_vids a)) (instances seed))

(* every component a commit's split leaves is a fragment
   [Planner.seed_fragments] may probe *)
let prop_forest_test_split =
  qcheck ~count:150 "forest test on rows = tuple graph (tombstoned arenas, fragments)" seeds
    (fun seed ->
      let rng = rng seed in
      List.for_all
        (fun a ->
          let t = split rng a 3 in
          pivots_agree t (live_vids t) && Array.for_all (pivots_agree t) (fragments t))
        (instances seed))

(* ---- the solvers ---- *)

let outcome_equal = Test_exact.outcome_equal

let same (d, o) (d', o') = R.Stuple.Set.equal d d' && outcome_equal o o'

let rb_equal (x : D.Reduction.rbsc) (y : D.Reduction.rbsc) =
  let i = x.D.Reduction.instance and j = y.D.Reduction.instance in
  arrays_equal (fun a b -> bits a = bits b) i.Setcover.Red_blue.red_weights j.Setcover.Red_blue.red_weights
  && i.Setcover.Red_blue.num_blue = j.Setcover.Red_blue.num_blue
  && arrays_equal
       (fun (s : Setcover.Red_blue.set) (t : Setcover.Red_blue.set) ->
         String.equal s.label t.label && Setcover.Iset.equal s.red t.red
         && Setcover.Iset.equal s.blue t.blue)
       i.Setcover.Red_blue.sets j.Setcover.Red_blue.sets
  && arrays_equal R.Stuple.equal x.D.Reduction.set_tuple y.D.Reduction.set_tuple
  && arrays_equal D.Vtuple.equal x.D.Reduction.red_vtuple y.D.Reduction.red_vtuple
  && arrays_equal D.Vtuple.equal x.D.Reduction.blue_vtuple y.D.Reduction.blue_vtuple

let pn_equal (x : D.Reduction.pnpsc) (y : D.Reduction.pnpsc) =
  let i = x.D.Reduction.instance and j = y.D.Reduction.instance in
  let weights = arrays_equal (fun a b -> bits a = bits b) in
  weights i.Setcover.Pos_neg.pos_weights j.Setcover.Pos_neg.pos_weights
  && weights i.Setcover.Pos_neg.neg_weights j.Setcover.Pos_neg.neg_weights
  && arrays_equal
       (fun (s : Setcover.Pos_neg.set) (t : Setcover.Pos_neg.set) ->
         String.equal s.label t.label && Setcover.Iset.equal s.pos t.pos
         && Setcover.Iset.equal s.neg t.neg)
       i.Setcover.Pos_neg.sets j.Setcover.Pos_neg.sets
  && arrays_equal R.Stuple.equal x.D.Reduction.set_tuple y.D.Reduction.set_tuple
  && arrays_equal D.Vtuple.equal x.D.Reduction.neg_vtuple y.D.Reduction.neg_vtuple
  && arrays_equal D.Vtuple.equal x.D.Reduction.pos_vtuple y.D.Reduction.pos_vtuple

let registered name =
  List.find (fun (module S : D.Solver.S) -> String.equal S.name name) (D.Solvers.registered ())

(* the registry's answer: the oracle's deletion and outcome, and the
   expected certificate *)
let registry_agrees name (a : D.Arena.t) expect =
  let (module S : D.Solver.S) = registered name in
  match (S.solve a, expect) with
  | None, None -> true
  | Some sol, Some (d, o, cert) ->
    same (sol.D.Solution.deleted, sol.D.Solution.outcome) (d, o)
    && (match (sol.D.Solution.certificate, cert) with
       | D.Solution.Ratio r, D.Solution.Ratio r' -> bits r = bits r'
       | c, c' -> c = c')
  | _ -> false

(* One arena: every solver on its rows = its oracle on its index. Brute
   runs under the planner's exact threshold only. *)
let solvers_agree (a : D.Arena.t) =
  let prov = D.Arena.provenance a in
  let small = Array.length (D.Arena.candidate_ids a) <= 16 in
  let brute = if small then Ref.brute prov else None in
  let general = Ref.general prov and greedy = Ref.greedy prov in
  rb_equal (D.Reduction.to_red_blue a) (Ref.to_red_blue prov)
  && pn_equal (D.Reduction.to_pos_neg a) (Ref.to_pos_neg prov)
  && ((not small)
     || Option.equal
          (fun (x : D.Brute.result) (y : D.Brute.result) ->
            same (x.D.Brute.deletion, x.D.Brute.outcome) (y.D.Brute.deletion, y.D.Brute.outcome))
          (D.Brute.solve_arena a) brute
        && registry_agrees "brute" a
             (Option.map
                (fun (r : D.Brute.result) -> (r.D.Brute.deletion, r.D.Brute.outcome, D.Solution.Exact))
                brute))
  && Option.equal
       (fun (x : D.General_approx.result) (y : D.General_approx.result) ->
         same (x.D.General_approx.deletion, x.D.General_approx.outcome)
           (y.D.General_approx.deletion, y.D.General_approx.outcome)
         && bits x.D.General_approx.claimed_bound = bits y.D.General_approx.claimed_bound)
       (D.General_approx.solve_arena a) general
  && registry_agrees "general" a
       (Option.map
          (fun (r : D.General_approx.result) ->
            ( r.D.General_approx.deletion, r.D.General_approx.outcome,
              D.Solution.Ratio r.D.General_approx.claimed_bound ))
          general)
  && (let g = D.Single_query.solve_greedy_multi a in
      same (g.D.Single_query.deletion, g.D.Single_query.outcome)
        (greedy.D.Single_query.deletion, greedy.D.Single_query.outcome))
  && registry_agrees "greedy" a
       (Some (greedy.D.Single_query.deletion, greedy.D.Single_query.outcome, D.Solution.Heuristic))
  &&
  match (D.Single_query.solve_arena a, Ref.single prov) with
  | Ok x, Ok y ->
    same (x.D.Single_query.deletion, x.D.Single_query.outcome)
      (y.D.Single_query.deletion, y.D.Single_query.outcome)
  | Error e, Error e' -> e = e'
  | _ -> false

let prop_solvers =
  qcheck ~count:100 "arena solvers = set-and-map oracles (families, random CQs)" seeds
    (fun seed -> List.for_all solvers_agree (instances seed))

let prop_solvers_tombstoned =
  qcheck ~count:60 "arena solvers = set-and-map oracles (tombstoned arenas and shards)" seeds
    (fun seed ->
      let rng = rng seed in
      List.for_all
        (fun a ->
          let t = split rng a 2 in
          solvers_agree t && List.for_all solvers_agree (shards t))
        (instances seed))

let suite =
  [
    prop_forest_test;
    prop_forest_test_split;
    prop_solvers;
    prop_solvers_tombstoned;
  ]
