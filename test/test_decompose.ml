(* Shatter-and-plan: the set-cover decomposition, the arena's component
   partition (scratch and incrementally maintained), honest shard
   arenas, planner differentials against the whole-instance portfolio,
   and the engine's planner sessions. *)

open Util
module R = Relational
module D = Deleprop
module SC = Setcover
module B = Setcover.Bitset

let seeds = QCheck2.Gen.int_range 0 10_000

(* ---- instance families ---- *)

let forest_prov seed =
  let rng = rng seed in
  let { Workload.Forest_family.problem = p; _ } =
    Workload.Forest_family.generate ~rng
      { Workload.Forest_family.default with
        num_relations = 4; tuples_per_relation = 6; num_queries = 3;
        deletion_fraction = 0.4 }
  in
  D.Provenance.build p

(* many independent root components by construction *)
let pivot_prov ?(num_roots = 5) ?(tuples_per_relation = 4) seed =
  let rng = rng seed in
  let p =
    Workload.Pivot_family.generate ~rng
      { Workload.Pivot_family.depth = 3; num_roots; tuples_per_relation;
        num_queries = 2; deletion_fraction = 0.4 }
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

(* ---- red-blue set cover decomposition ---- *)

let random_rb rng =
  Workload.Rbsc_gen.red_blue ~rng
    ~num_red:(3 + Random.State.int rng 5)
    ~num_blue:(3 + Random.State.int rng 5)
    ~num_sets:(2 + Random.State.int rng 6)
    ~red_density:0.3 ~blue_density:0.3

let check_rb_shatter (t : SC.Red_blue.t) =
  let shards = SC.Decompose.shatter t in
  let set_seen = Array.make (SC.Red_blue.num_sets t) 0 in
  let red_seen = Array.make (SC.Red_blue.num_red t) 0 in
  let blue_seen = Array.make t.SC.Red_blue.num_blue 0 in
  Array.iter
    (fun (sh : SC.Decompose.shard) ->
      Array.iter (fun s -> set_seen.(s) <- set_seen.(s) + 1) sh.SC.Decompose.sets;
      Array.iter (fun r -> red_seen.(r) <- red_seen.(r) + 1) sh.SC.Decompose.reds;
      Array.iter (fun b -> blue_seen.(b) <- blue_seen.(b) + 1) sh.SC.Decompose.blues;
      (* the shard instance's sets are the global sets, remapped *)
      Array.iteri
        (fun l g ->
          let local = sh.SC.Decompose.instance.SC.Red_blue.sets.(l) in
          let back f = SC.Iset.map (fun i -> f i) in
          Alcotest.(check bool) "set red remap" true
            (SC.Iset.equal
               (back (fun i -> sh.SC.Decompose.reds.(i)) local.SC.Red_blue.red)
               t.SC.Red_blue.sets.(g).SC.Red_blue.red);
          Alcotest.(check bool) "set blue remap" true
            (SC.Iset.equal
               (back (fun i -> sh.SC.Decompose.blues.(i)) local.SC.Red_blue.blue)
               t.SC.Red_blue.sets.(g).SC.Red_blue.blue))
        sh.SC.Decompose.sets)
    shards;
  Array.iter (fun n -> Alcotest.(check int) "each set in one shard" 1 n) set_seen;
  Array.iter (fun n -> Alcotest.(check int) "each blue in one shard" 1 n) blue_seen;
  (* reds may be untouched by every set; those appear in no shard *)
  Array.iter
    (fun n -> Alcotest.(check bool) "red in at most one shard" true (n <= 1))
    red_seen;
  (* connectivity: sets sharing an element land in the same shard *)
  let shard_of_set = Array.make (SC.Red_blue.num_sets t) (-1) in
  Array.iteri
    (fun i (sh : SC.Decompose.shard) ->
      Array.iter (fun s -> shard_of_set.(s) <- i) sh.SC.Decompose.sets)
    shards;
  Array.iteri
    (fun i si ->
      Array.iteri
        (fun j sj ->
          if i < j
             && (not
                   (SC.Iset.disjoint si.SC.Red_blue.red sj.SC.Red_blue.red
                   && SC.Iset.disjoint si.SC.Red_blue.blue sj.SC.Red_blue.blue))
          then
            Alcotest.(check int) "sharing sets same shard" shard_of_set.(i)
              shard_of_set.(j))
        t.SC.Red_blue.sets)
    t.SC.Red_blue.sets

let prop_rb_shatter =
  qcheck ~count:100 "setcover: shatter partitions the instance" seeds (fun seed ->
      check_rb_shatter (random_rb (rng seed));
      true)

let prop_rb_exact =
  qcheck ~count:100 "setcover: decomposed exact = direct exact" seeds (fun seed ->
      let t = random_rb (rng seed) in
      let direct = SC.Red_blue.solve_exact t in
      let dec = SC.Decompose.solve ~solver:(fun i -> SC.Red_blue.solve_exact i) t in
      match (direct, dec) with
      | None, None -> true
      | Some a, Some b -> feq a.SC.Red_blue.cost b.SC.Red_blue.cost
      | _ -> false)

let prop_rb_approx =
  qcheck ~count:100 "setcover: decomposed approx stays feasible" seeds
    (fun seed ->
      let t = random_rb (rng seed) in
      match SC.Decompose.solve ~solver:(fun i -> SC.Red_blue.solve_approx i) t with
      | None -> not (SC.Red_blue.coverable t)
      | Some s -> SC.Red_blue.is_feasible t s.SC.Red_blue.chosen)

(* ---- arena partition ---- *)

let partition_equal (a : D.Arena.partition) (b : D.Arena.partition) =
  a.D.Arena.num_components = b.D.Arena.num_components
  && a.D.Arena.comp_of_sid = b.D.Arena.comp_of_sid
  && a.D.Arena.comp_of_vid = b.D.Arena.comp_of_vid

let check_partition_invariants (a : D.Arena.t) (p : D.Arena.partition) =
  (* witness rows are monochromatic and name the view tuple's component *)
  Array.iteri
    (fun vid row ->
      if Array.length row = 0 then
        Alcotest.(check int) "empty witness comp" (-1) p.D.Arena.comp_of_vid.(vid)
      else begin
        let c = p.D.Arena.comp_of_sid.(row.(0)) in
        Array.iter
          (fun sid ->
            Alcotest.(check int) "witness monochromatic" c
              p.D.Arena.comp_of_sid.(sid))
          row;
        Alcotest.(check int) "comp_of_vid" c p.D.Arena.comp_of_vid.(vid)
      end)
    a.D.Arena.witness;
  (* canonical numbering: component ids appear for the first time in
     ascending sid order, densely from 0 *)
  let next = ref 0 in
  Array.iter
    (fun c ->
      if c = !next then incr next
      else Alcotest.(check bool) "canonical labels" true (c >= 0 && c < !next))
    p.D.Arena.comp_of_sid;
  Alcotest.(check int) "num_components" !next p.D.Arena.num_components

let check_partition_family family seed =
  let prov = family seed in
  let a = D.Arena.build prov in
  check_partition_invariants a (D.Arena.partition a);
  true

let prop_partition_forest =
  qcheck ~count:50 "arena: partition invariants (forest)" seeds
    (check_partition_family forest_prov)

let prop_partition_random =
  qcheck ~count:50 "arena: partition invariants (random)" seeds
    (check_partition_family random_prov)

(* random deletion streams: the live component index, patched by
   [Component_index.delete], must export a partition bit-identical to
   the scratch one after every commit. Deletes tombstone ([Arena.delete]
   never moves slots), so the stream exercises iterated tombstoning:
   targets are drawn from the live slots, the export compares against a
   scratch partition of the tombstoned arena, and the structural
   invariants are checked on the compacted form (where every slot is
   live again) — [Component_index.compact] must carry the components
   over unchanged. *)
let check_partition_stream family seed =
  let rng = rng (seed + 7919) in
  let prov = ref (family seed) in
  let arena = ref (D.Arena.build !prov) in
  let index = ref (D.Component_index.build !arena) in
  for _ = 1 to 6 do
    let live =
      Array.of_list
        (List.filter
           (fun sid -> not (B.mem !arena.D.Arena.dead_s sid))
           (List.init (D.Arena.num_stuples !arena) Fun.id))
    in
    let n = Array.length live in
    if n > 1 then begin
      let k = 1 + Random.State.int rng 2 in
      let dd = ref R.Stuple.Set.empty in
      for _ = 1 to k do
        dd :=
          R.Stuple.Set.add
            !arena.D.Arena.stuples.(live.(Random.State.int rng n))
            !dd
      done;
      let prov' = D.Provenance.delete !prov !dd in
      let arena' = D.Arena.delete !arena ~dd:!dd prov' in
      let index' = D.Component_index.delete !index ~before:!arena ~dd:!dd arena' in
      Alcotest.(check bool) "patched partition = scratch" true
        (partition_equal (D.Component_index.partition index') (D.Arena.partition arena'));
      let compacted = D.Arena.compact arena' in
      let cpart =
        D.Component_index.partition (D.Component_index.compact index' ~before:arena')
      in
      check_partition_invariants compacted cpart;
      Alcotest.(check bool) "compacted partition = scratch of compacted" true
        (partition_equal cpart (D.Arena.partition compacted));
      prov := prov';
      arena := arena';
      index := index'
    end
  done;
  true

let prop_partition_stream_forest =
  qcheck ~count:25 "compindex: delete = scratch (forest)" seeds
    (check_partition_stream forest_prov)

let prop_partition_stream_pivot =
  qcheck ~count:25 "compindex: delete = scratch (pivot)" seeds
    (check_partition_stream (pivot_prov ?num_roots:None ?tuples_per_relation:None))

let prop_partition_stream_random =
  qcheck ~count:25 "compindex: delete = scratch (random)" seeds
    (check_partition_stream random_prov)

(* ---- shard honesty ---- *)

let check_shatter prov =
  let a = D.Arena.build prov in
  let part = D.Arena.partition a in
  let shards = shatter a in
  let bad_total = ref 0 in
  Array.iter
    (fun (sh : D.Arena.shard) ->
      let sa = sh.D.Arena.arena in
      Alcotest.(check int) "sid count"
        (Array.length sh.D.Arena.global_sids)
        (D.Arena.num_stuples sa);
      Alcotest.(check int) "vid count"
        (Array.length sh.D.Arena.global_vids)
        (D.Arena.num_vtuples sa);
      Alcotest.(check bool) "shard is active" true (not (B.is_empty sa.D.Arena.bad));
      bad_total := !bad_total + B.cardinal sa.D.Arena.bad;
      (* the id maps carry the parent's tuples verbatim *)
      Array.iteri
        (fun k sid ->
          Alcotest.check stuple "stuple map" a.D.Arena.stuples.(sid)
            sa.D.Arena.stuples.(k);
          Alcotest.(check int) "sid in component" sh.D.Arena.component
            part.D.Arena.comp_of_sid.(sid))
        sh.D.Arena.global_sids;
      Array.iteri
        (fun k vid ->
          Alcotest.check vtuple "vtuple map" a.D.Arena.vtuples.(vid)
            sa.D.Arena.vtuples.(k);
          (* weights replay bit-identically *)
          Alcotest.(check bool) "weight bit-identical" true
            (Float.equal sa.D.Arena.weights.(k) a.D.Arena.weights.(vid));
          (* bad/preserved stamps agree with the parent *)
          Alcotest.(check bool) "bad stamp" (B.mem a.D.Arena.bad vid)
            (B.mem sa.D.Arena.bad k))
        sh.D.Arena.global_vids;
      (* witness rows map through the id tables *)
      Array.iteri
        (fun vk row ->
          let lifted = Array.map (fun sk -> sh.D.Arena.global_sids.(sk)) row in
          Alcotest.(check bool) "witness row maps" true
            (lifted = a.D.Arena.witness.(sh.D.Arena.global_vids.(vk))))
        sa.D.Arena.witness)
    shards;
  Alcotest.(check int) "every bad vtuple in some shard" (B.cardinal a.D.Arena.bad)
    !bad_total

let check_shatter_family family seed =
  check_shatter (family seed);
  true

let prop_shatter_forest =
  qcheck ~count:30 "arena: shards are honest (forest)" seeds
    (check_shatter_family forest_prov)

let prop_shatter_pivot =
  qcheck ~count:30 "arena: shards are honest (pivot)" seeds
    (check_shatter_family (pivot_prov ?num_roots:None ?tuples_per_relation:None))

let prop_shatter_random =
  qcheck ~count:30 "arena: shards are honest (random)" seeds
    (check_shatter_family random_prov)

(* per-shard exact solves recombine to the whole-instance optimum —
   component independence is what makes decomposition sound *)
let check_exact_recombination seed =
  let prov = pivot_prov ~num_roots:3 ~tuples_per_relation:2 seed in
  let a = D.Arena.build prov in
  match D.Brute.solve prov with
  | None -> true
  | Some whole ->
    let shards = shatter a in
    let union = ref R.Stuple.Set.empty in
    let solved_all =
      Array.for_all
        (fun (sh : D.Arena.shard) ->
          match D.Brute.solve (D.Arena.provenance sh.D.Arena.arena) with
          | Some r ->
            union := R.Stuple.Set.union !union r.D.Brute.deletion;
            true
          | None -> false)
        shards
    in
    Alcotest.(check bool) "every shard solvable" true solved_all;
    let o = D.Side_effect.eval prov !union in
    Alcotest.(check bool) "recombined union feasible" true o.D.Side_effect.feasible;
    check_float "recombined cost = whole optimum"
      whole.D.Brute.outcome.D.Side_effect.cost o.D.Side_effect.cost;
    true

let prop_exact_recombination =
  qcheck ~count:30 "arena: exact shards recombine to the optimum" seeds
    check_exact_recombination

(* ---- planner ---- *)

(* the decomposed winner never costs more than the whole-instance
   portfolio winner (every portfolio algorithm either decomposes
   componentwise or is dominated by a shard tier) *)
let check_planner_dominates ?exact_threshold family seed =
  let prov = family seed in
  let a = D.Arena.build prov in
  if B.is_empty a.D.Arena.bad then true
  else
    let r = D.Planner.solve ?exact_threshold a in
    match (r.D.Planner.solutions, D.Portfolio.solutions ?exact_threshold a) with
    | s :: _, w :: _ ->
      D.Solution.feasible s
      && D.Solution.cost s <= D.Solution.cost w +. 1e-9
    | [], [] -> true
    | _ -> false

(* [approx] closes the brute tier on both sides ([exact_threshold] 0),
   so most shards answer on the approximate tier, where each solver
   sees only its shard *)
let prop_planner_dominates ~approx name family =
  let title =
    if approx then "approx tier: cost <= portfolio"
    else "planner: cost <= portfolio winner"
  in
  qcheck ~count:25
    (Printf.sprintf "%s (%s)" title name)
    seeds
    (check_planner_dominates
       ?exact_threshold:(if approx then Some 0 else None)
       family)

let prop_planner_families =
  List.concat_map
    (fun approx ->
      [
        prop_planner_dominates ~approx "forest" forest_prov;
        prop_planner_dominates ~approx "pivot"
          (pivot_prov ?num_roots:None ?tuples_per_relation:None);
        prop_planner_dominates ~approx "random star" random_prov;
      ])
    [ false; true ]

(* small components: every shard lands in an exact tier, so the planner
   must return the instance optimum with a factor-1 composite *)
let check_planner_exact seed =
  let prov = pivot_prov ~num_roots:3 ~tuples_per_relation:2 seed in
  let a = D.Arena.build prov in
  let shards = shatter a in
  if Array.length shards < 2 then true
  else begin
    let r = D.Planner.solve a in
    Alcotest.(check bool) "decomposed" true r.D.Planner.decomposed;
    Alcotest.(check int) "one decision per shard" (Array.length shards)
      (List.length r.D.Planner.shards);
    match (r.D.Planner.solutions, D.Brute.solve prov) with
    | [ s ], Some whole ->
      Alcotest.(check bool) "all shards exact" true
        (List.for_all
           (fun (d : D.Planner.shard_decision) -> d.D.Planner.exact)
           r.D.Planner.shards);
      (match s.D.Solution.certificate with
      | D.Solution.Composite { shards = n; factor = Some f } ->
        Alcotest.(check int) "composite shard count" (Array.length shards) n;
        check_float "factor 1" 1.0 f
      | c ->
        Alcotest.failf "expected a factor-1 composite, got %a"
          D.Solution.pp_certificate c);
      check_float "planner = optimum" whole.D.Brute.outcome.D.Side_effect.cost
        (D.Solution.cost s);
      true
    | _ -> Alcotest.fail "planner or brute found nothing"
  end

let prop_planner_exact =
  qcheck ~count:30 "planner: exact shards give a factor-1 optimum" seeds
    check_planner_exact

(* with no bad view tuple there is no active component: the planner's
   answer is the whole-instance portfolio's report, unchanged *)
let test_planner_no_active () =
  let prov = pivot_prov 42 in
  let a = D.Arena.build prov in
  let a = D.Arena.with_deletions a (D.Provenance.with_deletions prov []) in
  Alcotest.(check bool) "no bad view tuple" true (B.is_empty a.D.Arena.bad);
  let r = D.Planner.solve a in
  Alcotest.(check bool) "not decomposed" false r.D.Planner.decomposed;
  Alcotest.(check int) "no shard" 0 (List.length r.D.Planner.shards);
  let whole = D.Portfolio.solutions_report a in
  Alcotest.(check bool) "some solution" true (whole.D.Portfolio.solutions <> []);
  Test_engine.check_solutions_equal "planner = portfolio"
    r.D.Planner.solutions whole.D.Portfolio.solutions;
  Alcotest.(check int) "same failures"
    (List.length whole.D.Portfolio.failures)
    (List.length r.D.Planner.failures);
  Alcotest.(check bool) "same degraded flag" whole.D.Portfolio.degraded
    r.D.Planner.degraded

(* ---- engine ---- *)

(* the engine's incrementally maintained partition must match scratch
   after any mix of applies, deletes and (partition-merging) inserts *)
let check_engine_partition seed =
  let rng = rng seed in
  let p =
    Workload.Pivot_family.generate ~rng
      { Workload.Pivot_family.depth = 3; num_roots = 4;
        tuples_per_relation = 3; num_queries = 2; deletion_fraction = 0.0 }
  in
  let queries = p.D.Problem.queries in
  let eng = Engine.create ~domains:1 p.D.Problem.db queries in
  let deleted_pool = ref [] in
  let check tag =
    let _, arena = Engine.index eng in
    Alcotest.(check bool) (tag ^ ": partition = scratch") true
      (partition_equal (Engine.partition eng) (D.Arena.partition arena));
    Alcotest.(check int) (tag ^ ": components stat")
      (Engine.partition eng).D.Arena.num_components
      (Engine.stats eng).Engine.components
  in
  check "initial";
  for step = 1 to 8 do
    let tag = Printf.sprintf "seed %d step %d" seed step in
    match Random.State.int rng 3 with
    | 0 -> (
      match R.Instance.stuples (Engine.db eng) with
      | [] -> ()
      | sts ->
        let st = List.nth sts (Random.State.int rng (List.length sts)) in
        Engine.delete eng (R.Stuple.Set.singleton st);
        deleted_pool := st :: !deleted_pool;
        check tag)
    | 1 -> (
      match !deleted_pool with
      | [] -> ()
      | st :: rest ->
        deleted_pool := rest;
        if not (R.Instance.mem (Engine.db eng) st) then begin
          Engine.insert eng st;
          check tag
        end)
    | _ -> check tag
  done;
  Engine.close eng;
  true

let prop_engine_partition =
  qcheck ~count:15 "engine: incremental partition = scratch" seeds
    check_engine_partition

(* a planner session never pays more than the whole-instance portfolio
   winner on the session's own re-targeted index, round after round *)
let check_engine_plan_session seed =
  let rng = rng seed in
  let p =
    Workload.Pivot_family.generate ~rng
      { Workload.Pivot_family.depth = 3; num_roots = 4;
        tuples_per_relation = 3; num_queries = 2; deletion_fraction = 0.0 }
  in
  let queries = p.D.Problem.queries in
  let planned = Engine.create ~domains:1 p.D.Problem.db queries in
  let pick_requests () =
    let prov, _ = Engine.index planned in
    let all =
      D.Smap.fold
        (fun view ts acc ->
          R.Tuple.Set.fold (fun t acc -> (view, t) :: acc) ts acc)
        prov.D.Provenance.views []
    in
    match all with
    | [] -> []
    | _ ->
      let view, t = List.nth all (Random.State.int rng (List.length all)) in
      [ D.Delta_request.make ~view [ t ] ]
  in
  for _ = 1 to 4 do
    match pick_requests () with
    | [] -> ()
    | reqs -> (
      let prov, arena = Engine.index planned in
      let retargeted =
        D.Arena.with_deletions arena (D.Provenance.with_deletions prov reqs)
      in
      let portfolio = D.Portfolio.solutions retargeted in
      match Engine.request planned reqs with
      | Ok rp -> (
        match (rp.Engine.solutions, portfolio) with
        | sp :: _, sf :: _ ->
          Alcotest.(check bool) "planned cost <= portfolio winner" true
            (D.Solution.cost sp <= D.Solution.cost sf +. 1e-9);
          Alcotest.(check bool) "planned answer feasible" true
            (D.Solution.feasible sp);
          ignore (Engine.apply planned rp)
        | [], [] -> ()
        | _ -> Alcotest.fail "only one side found a solution")
      | Error _ -> Alcotest.fail "request failed")
  done;
  let s = Engine.stats planned in
  Alcotest.(check bool) "planner stats consistent" true
    (s.Engine.shards_solved = s.Engine.shards_exact + s.Engine.shards_approx);
  Engine.close planned;
  true

let prop_engine_plan_session =
  qcheck ~count:10 "engine: session <= portfolio winner" seeds
    check_engine_plan_session

let suite =
  [
    prop_rb_shatter;
    prop_rb_exact;
    prop_rb_approx;
    prop_partition_forest;
    prop_partition_random;
    prop_partition_stream_forest;
    prop_partition_stream_pivot;
    prop_partition_stream_random;
    prop_shatter_forest;
    prop_shatter_pivot;
    prop_shatter_random;
    prop_exact_recombination;
  ]
  @ prop_planner_families
  @ [
    prop_planner_exact;
    Alcotest.test_case "planner: nothing active = portfolio" `Quick
      test_planner_no_active;
    prop_engine_partition;
    prop_engine_plan_session;
  ]
