(* Bechamel timing benchmarks, one group per experiment of EXPERIMENTS.md.

   Quality (approximation-ratio) tables come from `bin/experiments.exe`;
   this harness times the algorithms that produce them. Every workload is
   generated once, outside the timed thunk, from a fixed seed. *)

open Bechamel
open Toolkit

module R = Relational
module D = Deleprop
module SC = Setcover

let rng seed = Random.State.make [| seed |]

(* ---- prepared workloads (built once) ---- *)

let forest ?(scale = 10) seed =
  let { Workload.Forest_family.problem; _ } =
    Workload.Forest_family.generate ~rng:(rng seed)
      { Workload.Forest_family.default with num_relations = 5; tuples_per_relation = scale;
        num_queries = 5; max_path_len = 3; deletion_fraction = 0.15 }
  in
  problem

let star seed =
  Workload.Random_family.generate ~rng:(rng seed)
    { Workload.Random_family.default with num_queries = 4; fact_tuples = 12; dim_tuples = 6 }

let pivot ?(scale = 12) seed =
  Workload.Pivot_family.generate ~rng:(rng seed)
    { Workload.Pivot_family.default with depth = 4; tuples_per_relation = scale; num_queries = 4 }

let hard seed =
  fst
    (Workload.Hard_family.generate ~rng:(rng seed)
       { Workload.Hard_family.default with num_red = 8; num_blue = 8; num_sets = 10 })

let prov p = D.Provenance.build p

(* ---- benchmark groups ---- *)

(* E1 (Fig. 1): end-to-end on the running example *)
let bench_e1 =
  Test.make_grouped ~name:"e1_fig1"
    [
      Test.make ~name:"provenance"
        (Staged.stage (fun () -> prov (Workload.Author_journal.scenario_q4 ())));
      (let a = D.Arena.build (prov (Workload.Author_journal.scenario_q4 ())) in
       Test.make ~name:"brute" (Staged.stage (fun () -> D.Brute.solve_arena a)));
    ]

(* E2/E8: hard-family reduction + solvers *)
let bench_e2 =
  let h = hard 11 in
  let a = D.Arena.build (prov h.D.Hardness.problem) in
  Test.make_grouped ~name:"e2_hard_family"
    [
      Test.make ~name:"reduce_thm1"
        (Staged.stage (fun () ->
             let rb =
               Workload.Rbsc_gen.red_blue ~rng:(rng 11) ~num_red:8 ~num_blue:8 ~num_sets:10
                 ~red_density:0.3 ~blue_density:0.35
             in
             D.Hardness.of_red_blue rb));
      Test.make ~name:"brute" (Staged.stage (fun () -> D.Brute.solve_arena a));
      Test.make ~name:"general_approx" (Staged.stage (fun () -> D.General_approx.solve_arena a));
    ]

(* E3: general-case approximation on star joins *)
let bench_e3 =
  let a = D.Arena.build (prov (star 23)) in
  Test.make_grouped ~name:"e3_general"
    [
      Test.make ~name:"to_red_blue" (Staged.stage (fun () -> D.Reduction.to_red_blue a));
      Test.make ~name:"general_approx" (Staged.stage (fun () -> D.General_approx.solve_arena a));
    ]

(* E4/E5: primal-dual across scales (Prop. 1 runtime) *)
let bench_e5 =
  Test.make_grouped ~name:"e5_primal_dual"
    (List.map
       (fun scale ->
         let pv = prov (forest ~scale 31) in
         Test.make ~name:(Printf.sprintf "scale_%d" scale)
           (Staged.stage (fun () -> D.Primal_dual.solve pv)))
       [ 10; 20; 40; 80 ])

(* E6: LowDeg sweep *)
let bench_e6 =
  let pv = prov (forest ~scale:10 41) in
  Test.make_grouped ~name:"e6_lowdeg"
    [
      Test.make ~name:"single_tau" (Staged.stage (fun () -> D.Lowdeg.solve_with_tau pv ~tau:2));
      Test.make ~name:"full_sweep" (Staged.stage (fun () -> D.Lowdeg.solve pv));
    ]

(* E7: DP vs brute force on pivot forests *)
let bench_e7 =
  let small = D.Arena.build (prov (pivot ~scale:8 53)) in
  let large = D.Arena.build (prov (pivot ~scale:100 53)) in
  Test.make_grouped ~name:"e7_dp_tree"
    [
      Test.make ~name:"dp_small" (Staged.stage (fun () -> D.Dp_tree.solve_arena small));
      Test.make ~name:"brute_small" (Staged.stage (fun () -> D.Brute.solve_arena small));
      Test.make ~name:"dp_large" (Staged.stage (fun () -> D.Dp_tree.solve_arena large));
    ]

(* E8: balanced solvers *)
let bench_e8 =
  let pv = prov (forest ~scale:8 61) in
  Test.make_grouped ~name:"e8_balanced"
    [
      Test.make ~name:"exact" (Staged.stage (fun () -> D.Balanced.solve_exact pv));
      Test.make ~name:"general" (Staged.stage (fun () -> D.Balanced.solve_general pv));
    ]

(* E9: single-query polynomial case *)
let bench_e9 =
  let pv =
    prov
      (Workload.Random_family.generate_single ~rng:(rng 71)
         { Workload.Random_family.default with fact_tuples = 40; dim_tuples = 20 })
  in
  let a = D.Arena.build pv in
  Test.make_grouped ~name:"e9_single_query"
    [
      Test.make ~name:"single_query" (Staged.stage (fun () -> D.Single_query.solve_arena a));
      Test.make ~name:"greedy_multi" (Staged.stage (fun () -> D.Single_query.solve_greedy_multi a));
    ]

(* E10: hypergraph machinery *)
let bench_e10 =
  let qs = (forest ~scale:10 83).D.Problem.queries in
  Test.make_grouped ~name:"e10_hypergraph"
    [
      Test.make ~name:"dual+forest_check"
        (Staged.stage (fun () -> Hypergraph.Dual.is_forest_case qs));
      Test.make ~name:"rel_tree" (Staged.stage (fun () -> Hypergraph.Rel_tree.of_queries qs));
    ]

(* E11: LP build + simplex *)
let bench_e11 =
  let pv = prov (forest ~scale:6 97) in
  Test.make_grouped ~name:"e11_lp"
    [
      Test.make ~name:"build" (Staged.stage (fun () -> D.Lp_formulation.build pv));
      Test.make ~name:"simplex" (Staged.stage (fun () -> D.Lp_formulation.lower_bound pv));
    ]

(* E12: source side-effect *)
let bench_e12 =
  let pv = prov (forest ~scale:10 113) in
  Test.make_grouped ~name:"e12_source"
    [
      Test.make ~name:"exact" (Staged.stage (fun () -> D.Source_side_effect.solve_exact pv));
      Test.make ~name:"greedy" (Staged.stage (fun () -> D.Source_side_effect.solve_greedy pv));
    ]

(* E14: cleaning workloads end-to-end *)
let bench_e14 =
  let w =
    Workload.Cleaning.generate ~rng:(rng 127) ~views_with_feedback:4
      { Workload.Cleaning.default with tuples_per_relation = 5 }
  in
  let a = D.Arena.build (prov w.Workload.Cleaning.problem) in
  Test.make_grouped ~name:"e14_cleaning"
    [
      Test.make ~name:"generate"
        (Staged.stage (fun () ->
             Workload.Cleaning.generate ~rng:(rng 127) ~views_with_feedback:4
               { Workload.Cleaning.default with tuples_per_relation = 5 }));
      Test.make ~name:"repair_exact" (Staged.stage (fun () -> D.Brute.solve_arena a));
    ]

(* E15: ablation variants *)
let bench_e15 =
  let pv = prov (forest ~scale:20 131) in
  Test.make_grouped ~name:"e15_ablations"
    [
      Test.make ~name:"pd_full" (Staged.stage (fun () -> D.Primal_dual.solve pv));
      Test.make ~name:"pd_no_reverse_delete"
        (Staged.stage (fun () -> D.Primal_dual.solve ~reverse_delete:false pv));
      Test.make ~name:"lowdeg_no_prune"
        (Staged.stage (fun () -> D.Lowdeg.solve ~prune_wide:false pv));
    ]

(* E16: bounded deletion *)
let bench_e16 =
  let pv = prov (forest ~scale:8 137) in
  Test.make_grouped ~name:"e16_bounded"
    [
      Test.make ~name:"min_budget" (Staged.stage (fun () -> D.Bounded.min_budget pv));
      Test.make ~name:"solve_k3" (Staged.stage (fun () -> D.Bounded.solve ~k:3 pv));
    ]

(* E17: incremental maintenance vs full re-evaluation *)
let bench_e17 =
  let p = forest ~scale:60 139 in
  let db = p.D.Problem.db in
  let q = List.hd p.D.Problem.queries in
  let view = Cq.Eval.evaluate db q in
  let dd =
    match R.Instance.stuples db with
    | a :: b :: _ -> R.Stuple.Set.of_list [ a; b ]
    | l -> R.Stuple.Set.of_list l
  in
  Test.make_grouped ~name:"e17_maintenance"
    [
      Test.make ~name:"full_reeval"
        (Staged.stage (fun () -> Cq.Eval.evaluate (R.Instance.delete db dd) q));
      Test.make ~name:"incremental"
        (Staged.stage (fun () -> Cq.Maintain.refresh db q ~view dd));
    ]

(* E18: join planning *)
let bench_e18 =
  let p =
    Workload.Random_family.generate ~rng:(rng 149)
      { Workload.Random_family.default with num_dimensions = 3; dims_per_query = 3;
        fact_tuples = 30; dim_tuples = 10; num_queries = 1 }
  in
  let q = List.hd p.D.Problem.queries in
  let adversarial = { q with Cq.Query.body = List.rev q.Cq.Query.body } in
  Test.make_grouped ~name:"e18_planning"
    [
      Test.make ~name:"naive"
        (Staged.stage (fun () -> Cq.Eval.evaluate ~planned:false p.D.Problem.db adversarial));
      Test.make ~name:"planned"
        (Staged.stage (fun () -> Cq.Eval.evaluate ~planned:true p.D.Problem.db adversarial));
    ]

(* phase-5 substrates: indexes, lineage, causality, UCQ *)
let bench_phase5 =
  let p = forest ~scale:40 151 in
  let db = p.D.Problem.db in
  let q = List.hd p.D.Problem.queries in
  let answer =
    match R.Tuple.Set.elements (Cq.Eval.evaluate db q) with
    | t :: _ -> Some t
    | [] -> None
  in
  let u =
    Cq.Ucq.make ~name:"U"
      [ Cq.Parser.query_of_string "U(K, A) :- R0(K, A)";
        Cq.Parser.query_of_string "U(K, A) :- R1(K, A, P)" ]
  in
  Test.make_grouped ~name:"phase5"
    ([
       Test.make ~name:"ucq_eval" (Staged.stage (fun () -> Cq.Ucq.evaluate db u));
     ]
    @
    match answer with
    | None -> []
    | Some a ->
      [
        Test.make ~name:"why_provenance" (Staged.stage (fun () -> Cq.Lineage.why db q a));
        Test.make ~name:"where_provenance" (Staged.stage (fun () -> Cq.Lineage.where_ db q a));
        Test.make ~name:"causality_ranking"
          (Staged.stage (fun () -> Cq.Causality.ranking db q ~answer:a));
      ])

(* arena: compile cost of the dense representation, and old-vs-new solver
   timings across forest scales. `pd_seed_*` / `lowdeg_seed_*` /
   `rbsc_approx_seed` are the pre-arena reference paths; their `_arena`
   (resp. `_bitset`) counterparts include every cost of the new path —
   e.g. `pd_arena_*` is Arena.build + kernel. BENCH_arena.json tracks
   this group from PR 1 onward. *)
let bench_arena =
  let scales = [ 10; 20; 40; 80 ] in
  let scale_tests =
    List.concat_map
      (fun scale ->
        let pv = prov (forest ~scale 31) in
        [
          Test.make ~name:(Printf.sprintf "build_scale_%d" scale)
            (Staged.stage (fun () -> D.Arena.build pv));
          Test.make ~name:(Printf.sprintf "pd_seed_scale_%d" scale)
            (Staged.stage (fun () -> Reference.Pd_reference.solve_reference pv));
          Test.make ~name:(Printf.sprintf "pd_arena_scale_%d" scale)
            (Staged.stage (fun () -> D.Primal_dual.solve pv));
        ])
      scales
  in
  let lowdeg_tests =
    let pv = prov (forest ~scale:20 31) in
    [
      Test.make ~name:"lowdeg_seed_scale_20"
        (Staged.stage (fun () -> Reference.Lowdeg_reference.solve_reference pv));
      Test.make ~name:"lowdeg_arena_scale_20"
        (Staged.stage (fun () -> D.Lowdeg.solve pv));
    ]
  in
  let rbsc_tests =
    let rb =
      Workload.Rbsc_gen.red_blue ~rng:(rng 17) ~num_red:60 ~num_blue:60 ~num_sets:80
        ~red_density:0.2 ~blue_density:0.2
    in
    [
      Test.make ~name:"rbsc_approx_seed"
        (Staged.stage (fun () -> Reference.Rb_reference.solve_approx_reference rb));
      Test.make ~name:"rbsc_approx_bitset"
        (Staged.stage (fun () -> SC.Red_blue.solve_approx rb));
    ]
  in
  Test.make_grouped ~name:"arena" (scale_tests @ lowdeg_tests @ rbsc_tests)

(* compindex: the per-round cost of component-local delta sessions on
   the live component index. Each round commits a delete + re-insert
   confined to one component (tombstone and resurrect in place), then
   solves the standing single-component ΔV with the shard cache on, so
   the dirty tracking confines re-solving to the touched component and
   the planner enumerates active components off the live rosters,
   O(‖ΔV‖ + active). The scales double the database while the touched
   component stays constant-sized, so both curves must stay ~flat — the
   O(active) enumeration claim of DESIGN.md §15. BENCH_compindex.json
   tracks this group; EXPERIMENTS.md keeps the tables of its retired
   comparison arms (the partition sweep, eager compaction). *)
let bench_compindex =
  let rounds = 10 in
  let requests_of part (arena : D.Arena.t) =
    let tbl = Hashtbl.create 7 in
    Array.iteri
      (fun vid (vt : D.Vtuple.t) ->
        if part.D.Arena.comp_of_vid.(vid) = 0 then
          Hashtbl.replace tbl vt.D.Vtuple.query
            (vt.D.Vtuple.tuple
            :: (try Hashtbl.find tbl vt.D.Vtuple.query with Not_found -> [])))
      arena.D.Arena.vtuples;
    Hashtbl.fold (fun view ts acc -> D.Delta_request.make ~view ts :: acc) tbl []
  in
  let run_rounds eng reqs rep ncomp =
    for round = 1 to rounds do
      (match rep.(round mod max ncomp 1) with
      | Some st ->
        let s = R.Stuple.Set.singleton st in
        ignore (Engine.apply_delta eng (D.Delta.make ~deletes:s ~inserts:s ()))
      | None -> ());
      match Engine.request eng reqs with
      | Ok _ -> ()
      | Error _ -> assert false
    done
  in
  (* a warmed session, built as the benchmark's resource: bechamel makes
     it once before the first sample, so no timed run pays the
     Engine.create or the warm rounds *)
  let setup (p : D.Problem.t) () =
    let eng = Engine.create ~domains:1 p.D.Problem.db p.D.Problem.queries in
    let part = Engine.partition eng in
    let _, arena = Engine.index eng in
    let reqs = requests_of part arena in
    let ncomp = part.D.Arena.num_components in
    let rep = Array.make (max ncomp 1) None in
    Array.iteri
      (fun sid c ->
        if rep.(c) = None then rep.(c) <- Some arena.D.Arena.stuples.(sid))
      part.D.Arena.comp_of_sid;
    run_rounds eng reqs rep ncomp;
    (eng, reqs, rep, ncomp)
  in
  (* the enumeration step in isolation — the exact call Planner.solve
     makes per round to group the standing ΔV into active proto-shards.
     The ΔV touches one constant-sized component, so it must stay flat
     across the scales *)
  let enum_setup (p : D.Problem.t) () =
    let eng = Engine.create ~domains:1 p.D.Problem.db p.D.Problem.queries in
    let prov, arena = Engine.index eng in
    let cindex = Engine.component_index eng in
    let reqs = requests_of (Engine.partition eng) arena in
    (cindex, D.Arena.with_deletions arena (D.Provenance.with_deletions prov reqs))
  in
  let pair tag p =
    [
      Test.make_with_resource
        ~name:(Printf.sprintf "session%d_indexed_%s" rounds tag)
        Test.uniq ~allocate:(setup p) ~free:ignore
        (Staged.stage (fun (eng, reqs, rep, ncomp) -> run_rounds eng reqs rep ncomp));
      (* batched ×100: a single enumeration is sub-µs, below the harness
         noise floor *)
      Test.make_with_resource ~name:("active100_indexed_" ^ tag) Test.uniq
        ~allocate:(enum_setup p) ~free:ignore
        (Staged.stage (fun (cindex, arena') ->
             for _ = 1 to 100 do
               ignore (D.Component_index.active cindex arena')
             done));
    ]
  in
  let pivot_scale scale =
    Workload.Pivot_family.generate ~rng:(rng 179)
      { Workload.Pivot_family.depth = 3; num_roots = scale;
        tuples_per_relation = 6 * scale; num_queries = 3;
        deletion_fraction = 0.3 }
  in
  Test.make_grouped ~name:"compindex"
    (List.concat_map
       (fun (tag, p) -> pair tag p)
       [
         ("pivot_40", pivot_scale 40);
         ("pivot_80", pivot_scale 80);
         ("pivot_160", pivot_scale 160);
       ])

(* splice: what per-fragment decomposition buys when a memoized
   component keeps splitting. One hub-rooted tree per scale — H(k1)
   fanning out to `scale` branches M(k1, aᵢ), each carrying three
   L(aᵢ, bᵢⱼ) leaves — solved with the brute tier closed so the single
   component classifies Exact_forest. Each timed session warms the memo
   once, then runs `rounds` split rounds: a leaf delete prunes the
   component (invalidating the standing fingerprint every time),
   followed by the standing propose. The `spliced` variant carries the
   answer across every split by restricting the recorded DP tree — no
   shard re-solves or re-materializes after the warm round (the session
   asserts fragment_reuses_forest = rounds, so a guard regression fails
   the bench instead of silently timing re-solves) — while the
   `resolve` twin (~shard_cache:0) re-solves the whole component on
   every round, exactly what every session paid before decompositions
   existed. Engine construction and the warm solve are identical in
   both variants, so the gap is the per-split saving; it must widen
   with the scale (a DP re-solve re-materializes the shard arena and
   re-runs the solver over the whole component, the tree replay only
   walks the recorded nodes). BENCH_splice.json tracks this group. *)
let bench_splice =
  let rounds = 8 in
  let hub scale =
    let b = Buffer.create 4096 in
    Buffer.add_string b "rel H(K*)\nH(k1)\nrel M(K*, A*)\n";
    for i = 1 to scale do
      Buffer.add_string b (Printf.sprintf "M(k1, a%d)\n" i)
    done;
    Buffer.add_string b "rel L(A*, B*)\n";
    for i = 1 to scale do
      for j = 1 to 3 do
        Buffer.add_string b (Printf.sprintf "L(a%d, b%d_%d)\n" i i j)
      done
    done;
    ( R.Serial.instance_of_string (Buffer.contents b),
      Cq.Parser.queries_of_string
        "QM(K, A) :- H(K), M(K, A)\nQL(K, A, B) :- H(K), M(K, A), L(A, B)" )
  in
  let session ~shard_cache (db, queries) () =
    let eng =
      Engine.create ~domains:1 ~exact_threshold:0 ~shard_cache db
        queries
    in
    let reqs =
      [ D.Delta_request.make ~view:"QM" [ R.Tuple.strs [ "k1"; "a1" ] ] ]
    in
    let propose () =
      match Engine.request eng reqs with Ok _ -> () | Error _ -> assert false
    in
    propose ();
    (* branch 1 holds the ΔV and is never touched; round r prunes the
       third leaf of branch r, so every split leaves the recorded tree
       replayable and the next propose splices the seeded fragment *)
    for r = 2 to rounds + 1 do
      Engine.delete eng
        (R.Stuple.Set.singleton
           (R.Stuple.make "L"
              (R.Tuple.strs [ Printf.sprintf "a%d" r; Printf.sprintf "b%d_3" r ])));
      propose ()
    done;
    if shard_cache > 0 then begin
      let s = Engine.stats eng in
      assert (s.Engine.fragment_reuses_forest = rounds)
    end;
    Engine.close eng
  in
  let pair tag p =
    [
      Test.make ~name:(Printf.sprintf "session%d_resolve_%s" rounds tag)
        (Staged.stage (session ~shard_cache:0 p));
      Test.make ~name:(Printf.sprintf "session%d_spliced_%s" rounds tag)
        (Staged.stage (session ~shard_cache:512 p));
    ]
  in
  Test.make_grouped ~name:"splice"
    (List.concat_map
       (fun (tag, scale) -> pair tag (hub scale))
       [ ("hub_40", 40); ("hub_80", 80); ("hub_160", 160) ])

(* E21 scaling stages + parallel portfolio + SQL front end *)
let bench_e21 =
  let biblio =
    Workload.Bibliography.generate ~rng:(rng 163)
      { Workload.Bibliography.default with num_authors = 200; num_journals = 25 }
  in
  let pv = prov biblio in
  let sql_schema = R.Instance.schema biblio.D.Problem.db in
  Test.make_grouped ~name:"e21_pipeline"
    [
      Test.make ~name:"provenance_build" (Staged.stage (fun () -> D.Provenance.build biblio));
      Test.make ~name:"primal_dual" (Staged.stage (fun () -> D.Primal_dual.solve pv));
      (* each call compiles its arena, as the timed pair always has *)
      Test.make ~name:"portfolio_seq"
        (Staged.stage (fun () ->
             D.Portfolio.solutions ~exact_threshold:0 (D.Arena.build pv)));
      Test.make ~name:"portfolio_parallel"
        (Staged.stage (fun () ->
             D.Portfolio.solutions ~exact_threshold:0
               ~domains:(Domain.recommended_domain_count ())
               (D.Arena.build pv)));
      Test.make ~name:"sql_parse"
        (Staged.stage (fun () ->
             Cq.Sql.query_of_string ~schema:sql_schema ~name:"Q"
               "SELECT a.name, j.topic FROM Author a, Journal j WHERE a.journal = j.journal"));
    ]

(* containment / minimization micro-benchmarks *)
let bench_containment =
  let q_path =
    Cq.Parser.query_of_string "Q(X, Z) :- R(X, Y), R(Y, Z)"
  in
  let q_big =
    Cq.Parser.query_of_string
      "Q(X) :- R(X, Y1), R(X, Y2), R(X, Y3), R(X, Y4), R(Y1, Y2)"
  in
  Test.make_grouped ~name:"containment"
    [
      Test.make ~name:"equivalence"
        (Staged.stage (fun () -> Cq.Containment.equivalent q_path q_path));
      Test.make ~name:"minimize" (Staged.stage (fun () -> Cq.Containment.minimize q_big));
    ]

(* substrate micro-benchmarks *)
let bench_substrate =
  let p = forest ~scale:20 103 in
  let rb =
    Workload.Rbsc_gen.red_blue ~rng:(rng 5) ~num_red:10 ~num_blue:10 ~num_sets:14
      ~red_density:0.3 ~blue_density:0.35
  in
  Test.make_grouped ~name:"substrate"
    [
      Test.make ~name:"eval_views"
        (Staged.stage (fun () ->
             List.map (fun q -> Cq.Eval.evaluate p.D.Problem.db q) p.D.Problem.queries));
      Test.make ~name:"provenance_build" (Staged.stage (fun () -> D.Provenance.build p));
      Test.make ~name:"rbsc_greedy" (Staged.stage (fun () -> SC.Red_blue.solve_greedy rb));
      Test.make ~name:"rbsc_lowdeg" (Staged.stage (fun () -> SC.Red_blue.solve_lowdeg rb));
      Test.make ~name:"rbsc_exact" (Staged.stage (fun () -> SC.Red_blue.solve_exact rb));
    ]

let all_tests =
  [
    bench_e1; bench_e2; bench_e3; bench_e5; bench_e6; bench_e7; bench_e8; bench_e9;
    bench_e10; bench_e11; bench_e12; bench_e14; bench_e15; bench_e16; bench_e17;
    bench_e18; bench_arena; bench_compindex; bench_splice; bench_e21;
    bench_containment; bench_phase5; bench_substrate;
  ]

(* ---- CLI: main.exe [--json FILE] [--dry-run] [--quota S] [--limit N]
   [group ...] ---- *)

type cli = {
  json : string option;   (* dump results to this file *)
  dry_run : bool;         (* run every thunk once, no timing *)
  quota : float;          (* seconds of measurement per benchmark *)
  limit : int;            (* max samples per benchmark *)
  groups : string list;   (* empty = all *)
}

let usage () =
  Printf.eprintf
    "usage: main.exe [--json FILE] [--dry-run] [--quota SECONDS] [--limit N] \
     [group ...]\navailable groups: %s\n"
    (String.concat ", " (List.map Test.name all_tests));
  exit 2

let parse_cli () =
  let rec go acc = function
    | [] -> acc
    | "--json" :: file :: rest -> go { acc with json = Some file } rest
    | "--json" :: [] -> usage ()
    | "--dry-run" :: rest -> go { acc with dry_run = true } rest
    | "--quota" :: s :: rest -> (
      match float_of_string_opt s with
      | Some q when q > 0.0 -> go { acc with quota = q } rest
      | _ -> usage ())
    | "--quota" :: [] -> usage ()
    | "--limit" :: s :: rest -> (
      match int_of_string_opt s with
      | Some n when n > 0 -> go { acc with limit = n } rest
      | _ -> usage ())
    | "--limit" :: [] -> usage ()
    | ("--help" | "-h") :: _ -> usage ()
    | g :: rest ->
      if not (List.exists (fun t -> Test.name t = g) all_tests) then begin
        Printf.eprintf "unknown group %S\n" g;
        usage ()
      end;
      go { acc with groups = acc.groups @ [ g ] } rest
  in
  (* every sample first compacts the heap (bechamel's GC stabilization),
     so a 1 s quota buys only tens of samples: committed dumps are
     recorded with a longer --quota (EXPERIMENTS.md) *)
  go { json = None; dry_run = false; quota = 1.0; limit = 1000; groups = [] }
    (List.tl (Array.to_list Sys.argv))

let selected_tests cli =
  match cli.groups with
  | [] -> all_tests
  | gs -> List.filter (fun t -> List.mem (Test.name t) gs) all_tests

(* run every benchmark body exactly once — the `dune runtest` smoke that
   keeps this harness from bit-rotting silently *)
let dry_run_elt elt =
  match Test.Elt.fn elt with
  | Test.V { fn; kind = Test.Uniq; allocate; free } ->
    let v = allocate () in
    ignore (fn `Init (Test.Uniq.prj v));
    free v
  | Test.V { fn; kind = Test.Multiple; allocate; free } ->
    let v = allocate 1 in
    Array.iter (fun x -> ignore (fn `Init x)) (Test.Multiple.prj v);
    free v

(* ---- run + report ---- *)

let dump_json file measured =
  let oc = open_out file in
  (* a failed fit reads NaN, which JSON cannot spell *)
  let num x = if Float.is_nan x then "null" else D.Report.float_to_string x in
  let group (gname, rows) =
    Printf.sprintf "    {\"group\": \"%s\", \"results\": [\n%s\n    ]}"
      (D.Report.escape gname)
      (rows
      |> List.map (fun (name, est_ns, r2) ->
             Printf.sprintf "      {\"name\": \"%s\", \"time_ns_per_run\": %s, \"r2\": %s}"
               (D.Report.escape name) (num est_ns) (num r2))
      |> String.concat ",\n")
  in
  Printf.fprintf oc
    "{\n  \"unit\": \"ns/run\",\n  \"clock\": \"monotonic\",\n  \"groups\": [\n%s\n  ]\n}\n"
    (String.concat ",\n" (List.map group measured));
  close_out oc;
  Printf.printf "\nresults written to %s\n" file

let () =
  let cli = parse_cli () in
  (* fail on an unwritable --json target now, not after minutes of timing *)
  (match cli.json with
   | Some file ->
     (try close_out (open_out file)
      with Sys_error e ->
        Printf.eprintf "cannot write --json file: %s\n" e;
        exit 2)
   | None -> ());
  let tests = selected_tests cli in
  if cli.dry_run then begin
    List.iter
      (fun test ->
        List.iter
          (fun elt ->
            dry_run_elt elt;
            Printf.printf "dry-run %-50s ok\n%!" (Test.Elt.name elt))
          (Test.elements test))
      tests;
    Printf.printf "dry-run: %d groups ok\n" (List.length tests)
  end
  else begin
    let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
    let instance = Instance.monotonic_clock in
    let cfg = Benchmark.cfg ~limit:cli.limit ~quota:(Time.second cli.quota) () in
    Printf.printf "%-40s  %14s  %8s\n" "benchmark" "time/run" "r2";
    print_endline (String.make 68 '-');
    let measured =
      List.map
        (fun test ->
          let raw = Benchmark.all cfg [ instance ] test in
          let results = Analyze.all ols instance raw in
          let rows = Hashtbl.fold (fun name r acc -> (name, r) :: acc) results [] in
          let rows =
            rows
            |> List.map (fun (name, r) ->
                   let est =
                     match Analyze.OLS.estimates r with Some (e :: _) -> e | _ -> nan
                   in
                   let r2 =
                     match Analyze.OLS.r_square r with Some r2 -> r2 | None -> nan
                   in
                   (name, est, r2))
            |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)
          in
          List.iter
            (fun (name, est, r2) ->
              let time =
                if est > 1e9 then Printf.sprintf "%.3f s" (est /. 1e9)
                else if est > 1e6 then Printf.sprintf "%.3f ms" (est /. 1e6)
                else if est > 1e3 then Printf.sprintf "%.3f us" (est /. 1e3)
                else Printf.sprintf "%.1f ns" est
              in
              Printf.printf "%-40s  %14s  %8.4f\n%!" name time r2)
            rows;
          (Test.name test, rows))
        tests
    in
    Option.iter (fun file -> dump_json file measured) cli.json;
    print_endline "\nquality tables: run `dune exec bin/experiments.exe` (see EXPERIMENTS.md)"
  end
