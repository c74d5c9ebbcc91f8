(* Experiment harness: regenerates every table/figure analog listed in
   EXPERIMENTS.md (E1-E15). Each experiment prints one or more tables;
   `experiments --exp all` prints everything (the default). *)

module R = Relational
module D = Deleprop
module SC = Setcover
module T = Tables

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, (Unix.gettimeofday () -. t0) *. 1000.0)

(* a cell's time per call for the tables that print a speedup: one
   untimed warm-up call, then the median of [median_runs] timed samples,
   each running enough calls to last at least 1 ms — so a fast call is
   not read at the clock's resolution, and the ratio of two cells does
   not swing with one sample's luck *)
let median_runs = 7

let time_median f =
  let r = f () in
  let sample n =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to n do
      ignore (Sys.opaque_identity (f ()))
    done;
    (Unix.gettimeofday () -. t0) *. 1000.0
  in
  let rec calls n = if sample n >= 1.0 then n else calls (2 * n) in
  let n = calls 1 in
  let ms = List.init median_runs (fun _ -> sample n /. float_of_int n) in
  (r, List.nth (List.sort Float.compare ms) (median_runs / 2))

let ratio approx opt = if opt <= 1e-12 then (if approx <= 1e-12 then 1.0 else infinity) else approx /. opt

let cost (o : D.Side_effect.outcome) = o.D.Side_effect.cost
let bcost (o : D.Side_effect.outcome) = o.D.Side_effect.balanced_cost

let rng seed = Random.State.make [| seed |]

(* ---------------- E1: Fig. 1 running example ---------------- *)

let e1 () =
  let p3 = Workload.Author_journal.scenario_q3 () in
  let view3 = D.Problem.view p3 "Q3" in
  T.print ~title:"E1a  Fig. 1(c): Q3(D)" ~header:[ "AuName"; "Topic" ]
    (List.map
       (fun t -> List.map R.Value.to_string (R.Tuple.to_list t))
       (R.Tuple.Set.elements view3));
  let opt3 = Option.get (D.Brute.solve_ground_truth p3) in
  T.print ~title:"E1b  ΔV = (John, XML) on Q3: optimal propagation"
    ~header:[ "solution"; "side-effect" ]
    [
      [ String.concat " + "
          (List.map R.Stuple.to_string (R.Stuple.Set.elements opt3.D.Brute.deletion));
        T.f (cost opt3.D.Brute.outcome) ];
    ];
  let p4 = Workload.Author_journal.scenario_q4 () in
  let prov4 = D.Provenance.build p4 in
  let witness =
    D.Provenance.witness_of prov4
      (D.Vtuple.make "Q4" (R.Tuple.strs [ "John"; "TKDE"; "XML" ]))
  in
  let rows =
    List.map
      (fun st ->
        let o = D.Side_effect.eval prov4 (R.Stuple.Set.singleton st) in
        [ R.Stuple.to_string st; T.f (cost o); T.b o.D.Side_effect.feasible ])
      (R.Stuple.Set.elements witness)
  in
  T.print ~title:"E1c  ΔV = (John, TKDE, XML) on Q4: the key-preserving witness choices"
    ~header:[ "delete"; "side-effect"; "feasible" ] rows;
  let pm = Workload.Author_journal.scenario_multi () in
  let optm = Option.get (D.Brute.solve_ground_truth pm) in
  T.print ~title:"E1d  multi-query scenario (both deletions at once)"
    ~header:[ "solution"; "side-effect" ]
    [
      [ String.concat " + "
          (List.map R.Stuple.to_string (R.Stuple.Set.elements optm.D.Brute.deletion));
        T.f (cost optm.D.Brute.outcome) ];
    ]

(* ---------------- E2: Thm 1 hard family ---------------- *)

let e2 () =
  let rows =
    List.map
      (fun size ->
        let rg = rng (1000 + size) in
        let spec =
          { Workload.Hard_family.default with num_red = size; num_blue = size;
            num_sets = size + 2 }
        in
        let h, rb = Workload.Hard_family.generate ~rng:rg spec in
        let prov = D.Provenance.build h.D.Hardness.problem in
        let opt_vse = Option.get (D.Brute.solve prov) in
        let opt_rbsc = Option.get (SC.Red_blue.solve_exact rb) in
        let ga = Option.get (D.General_approx.solve prov) in
        let ov = cost opt_vse.D.Brute.outcome in
        [
          T.i size;
          T.i (D.Problem.view_size h.D.Hardness.problem);
          T.f ov;
          T.f opt_rbsc.SC.Red_blue.cost;
          T.b (Float.abs (ov -. opt_rbsc.SC.Red_blue.cost) < 1e-9);
          T.f (cost ga.D.General_approx.outcome);
          T.f (ratio (cost ga.D.General_approx.outcome) ov);
        ])
      [ 4; 6; 8; 10; 12 ]
  in
  T.print
    ~title:"E2  Thm 1 reduction: RBSC -> 2+ project-free queries (cost preservation, approx gap)"
    ~header:[ "elements"; "||V||"; "opt(VSE)"; "opt(RBSC)"; "equal"; "approx"; "ratio" ]
    rows

(* ---------------- E3: Claim 1 general-case bound ---------------- *)

let e3 () =
  let rows =
    List.map
      (fun (nq, dims) ->
        let rg = rng (2000 + (nq * 10) + dims) in
        let spec =
          { Workload.Random_family.default with num_queries = nq; dims_per_query = dims;
            fact_tuples = 10; dim_tuples = 5 }
        in
        let p = Workload.Random_family.generate ~rng:rg spec in
        let prov = D.Provenance.build p in
        let opt = Option.get (D.Brute.solve prov) in
        let ga = Option.get (D.General_approx.solve prov) in
        let oc = cost opt.D.Brute.outcome in
        [
          T.i nq;
          T.i (D.Problem.max_arity p);
          T.i (D.Problem.view_size p);
          T.i (D.Problem.deletion_size p);
          T.f oc;
          T.f (cost ga.D.General_approx.outcome);
          T.f (ratio (cost ga.D.General_approx.outcome) oc);
          T.f ga.D.General_approx.claimed_bound;
        ])
      [ (2, 1); (2, 2); (3, 2); (4, 2); (4, 3); (5, 3) ]
  in
  T.print
    ~title:"E3  Claim 1: general-case approximation vs the 2·sqrt(l·||V||·log||ΔV||) bound"
    ~header:[ "queries"; "l"; "||V||"; "||ΔV||"; "opt"; "approx"; "ratio"; "bound" ]
    rows

(* ---------------- E4: Thm 3 primal-dual l-approximation ---------------- *)

let e4 () =
  let rows =
    List.map
      (fun path_len ->
        let trials = 25 in
        let ratios =
          List.init trials (fun t ->
              let rg = rng (3000 + (path_len * 100) + t) in
              let spec =
                { Workload.Forest_family.default with max_path_len = path_len;
                  num_relations = max 3 (path_len + 1); tuples_per_relation = 6 }
              in
              let { Workload.Forest_family.problem = p; _ } =
                Workload.Forest_family.generate ~rng:rg spec
              in
              let prov = D.Provenance.build p in
              let opt = Option.get (D.Brute.solve prov) in
              let pd = D.Primal_dual.solve prov in
              (ratio (cost pd.D.Primal_dual.outcome) (cost opt.D.Brute.outcome),
               D.Problem.max_arity p))
        in
        let finite = List.filter (fun (r, _) -> Float.is_finite r) ratios in
        let avg = List.fold_left (fun a (r, _) -> a +. r) 0.0 finite /. float_of_int (List.length finite) in
        let worst = List.fold_left (fun a (r, _) -> max a r) 0.0 finite in
        let l = List.fold_left (fun a (_, l) -> max a l) 0 ratios in
        [ T.i path_len; T.i l; T.i trials; T.f avg; T.f worst; T.b (worst <= float_of_int l +. 1e-9) ])
      [ 1; 2; 3; 4 ]
  in
  T.print ~title:"E4  Thm 3: PrimeDualVSE ratio <= l on forest cases (25 trials per row)"
    ~header:[ "path-len"; "l"; "trials"; "avg-ratio"; "worst-ratio"; "within l" ]
    rows

(* ---------------- E5: Prop 1 primal-dual runtime ---------------- *)

let e5 () =
  let rows =
    List.map
      (fun scale ->
        let rg = rng (4000 + scale) in
        let spec =
          { Workload.Forest_family.default with num_relations = 5;
            tuples_per_relation = scale; num_queries = 6; max_path_len = 3;
            deletion_fraction = 0.15 }
        in
        let { Workload.Forest_family.problem = p; _ } =
          Workload.Forest_family.generate ~rng:rg spec
        in
        let prov = D.Provenance.build p in
        let _, ms = time (fun () -> D.Primal_dual.solve prov) in
        [
          T.i scale;
          T.i (D.Problem.view_size p);
          T.i (D.Problem.deletion_size p);
          T.f ms;
        ])
      [ 10; 20; 40; 80; 160 ]
  in
  T.print ~title:"E5  Prop 1: PrimeDualVSE runtime scaling (polynomial in ||V||, ||ΔV||)"
    ~header:[ "tuples/rel"; "||V||"; "||ΔV||"; "time-ms" ]
    rows

(* ---------------- E6: Thm 4 LowDeg vs primal-dual crossover ---------------- *)

let e6 () =
  let rows =
    List.concat_map
      (fun (label, path_len, tuples) ->
        let trials = 15 in
        let acc =
          List.init trials (fun t ->
              let rg = rng (5000 + (path_len * 97) + t) in
              let spec =
                { Workload.Forest_family.default with max_path_len = path_len;
                  num_relations = max 3 (path_len + 1); tuples_per_relation = tuples;
                  num_queries = 4 }
              in
              let { Workload.Forest_family.problem = p; _ } =
                Workload.Forest_family.generate ~rng:rg spec
              in
              let prov = D.Provenance.build p in
              let opt = Option.get (D.Brute.solve prov) in
              let pd = D.Primal_dual.solve prov in
              let ld = D.Lowdeg.solve prov in
              let oc = cost opt.D.Brute.outcome in
              ( ratio (cost pd.D.Primal_dual.outcome) oc,
                ratio (cost ld.D.Lowdeg.outcome) oc,
                D.Problem.max_arity p,
                D.Lowdeg.bound p ))
        in
        let finite = List.filter (fun (a, b, _, _) -> Float.is_finite a && Float.is_finite b) acc in
        let n = float_of_int (max 1 (List.length finite)) in
        let avg f = List.fold_left (fun s x -> s +. f x) 0.0 finite /. n in
        let l = List.fold_left (fun s (_, _, l, _) -> max s l) 0 acc in
        let tb = avg (fun (_, _, _, b) -> b) in
        [
          [
            T.s label; T.i l; T.f tb;
            T.f (avg (fun (a, _, _, _) -> a));
            T.f (avg (fun (_, b, _, _) -> b));
            T.s (if l <= int_of_float tb then "l (primal-dual)" else "2√||V|| (lowdeg)");
          ];
        ])
      [ ("narrow (l small)", 1, 8); ("medium", 3, 8); ("wide (l large)", 8, 3) ]
  in
  T.print
    ~title:"E6  Thm 4: 2·sqrt(||V||) LowDeg vs l-approx — the crossover in the guarantees"
    ~header:[ "regime"; "l"; "2√||V||"; "avg-ratio PD"; "avg-ratio LowDeg"; "better bound" ]
    rows

(* ---------------- E7: Alg 4 DP exactness + scaling ---------------- *)

let e7 () =
  let rows =
    List.map
      (fun scale ->
        let rg = rng (6000 + scale) in
        let spec =
          { Workload.Pivot_family.default with depth = 4; tuples_per_relation = scale;
            num_queries = 4 }
        in
        let p = Workload.Pivot_family.generate ~rng:rg spec in
        let a = D.Arena.of_problem p in
        let dp, dp_ms = time (fun () -> D.Dp_tree.solve_arena a) in
        let dp = Result.get_ok dp in
        let brute_cell, match_cell, brute_ms_cell =
          if scale <= 12 then begin
            let opt, ms = time (fun () -> Option.get (D.Brute.solve_arena a)) in
            ( T.f (cost opt.D.Brute.outcome),
              T.b (Float.abs (cost opt.D.Brute.outcome -. cost dp.D.Dp_tree.outcome) < 1e-9),
              T.f ms )
          end
          else (T.s "-", T.s "-", T.s "-")
        in
        [
          T.i scale;
          T.i (D.Problem.view_size p);
          T.f (cost dp.D.Dp_tree.outcome);
          T.f dp_ms;
          brute_cell;
          brute_ms_cell;
          match_cell;
        ])
      [ 4; 8; 12; 50; 200 ]
  in
  T.print
    ~title:"E7  Alg 4: DPTreeVSE exact on pivot forests; polynomial scaling vs brute force"
    ~header:[ "tuples/rel"; "||V||"; "dp-cost"; "dp-ms"; "brute-cost"; "brute-ms"; "match" ]
    rows

(* ---------------- E8: balanced (Thm 2 + Lemma 1) ---------------- *)

let e8 () =
  let rows =
    List.map
      (fun size ->
        let rg = rng (7000 + size) in
        let spec =
          { Workload.Hard_family.default with num_red = size; num_blue = size;
            num_sets = size + 2 }
        in
        let h, pn = Workload.Hard_family.generate_balanced ~rng:rg spec in
        let prov = D.Provenance.build h.D.Hardness.problem in
        let exact = D.Balanced.solve_exact prov in
        let pn_opt = SC.Pos_neg.solve_exact pn in
        let approx = D.Balanced.solve_general prov in
        let tree = D.Balanced.solve_tree prov in
        let ex = bcost exact.D.Balanced.outcome in
        [
          T.i size;
          T.f ex;
          T.f pn_opt.SC.Pos_neg.cost;
          T.b (Float.abs (ex -. pn_opt.SC.Pos_neg.cost) < 1e-9);
          T.f (bcost approx.D.Balanced.outcome);
          T.f (bcost tree.D.Balanced.outcome);
          T.f (ratio (bcost approx.D.Balanced.outcome) ex);
          T.f (D.Balanced.bound h.D.Hardness.problem);
        ])
      [ 4; 6; 8; 10 ]
  in
  T.print
    ~title:"E8  Thm 2 + Lemma 1: balanced deletion propagation = PNPSC; approximation vs bound"
    ~header:[ "elements"; "opt(bal)"; "opt(PNPSC)"; "equal"; "approx"; "tree-pd"; "ratio"; "bound" ]
    rows

(* ---------------- E9: single-query PTime vs multi-query ---------------- *)

let e9 () =
  (* single-query, single-deletion: polynomial solver is exact *)
  let single_rows =
    List.map
      (fun scale ->
        let rg = rng (8000 + scale) in
        let spec =
          { Workload.Random_family.default with fact_tuples = scale; dim_tuples = scale / 2 }
        in
        let p = Workload.Random_family.generate_single ~rng:rg spec in
        let a = D.Arena.of_problem p in
        let sq, ms = time (fun () -> D.Single_query.solve_arena a) in
        match sq, D.Brute.solve_arena a with
        | Ok sq, Some opt ->
          [
            T.i scale;
            T.f (cost sq.D.Single_query.outcome);
            T.f (cost opt.D.Brute.outcome);
            T.b (Float.abs (cost sq.D.Single_query.outcome -. cost opt.D.Brute.outcome) < 1e-9);
            T.f ms;
          ]
        | _ -> [ T.i scale; T.s "-"; T.s "-"; T.s "-"; T.s "-" ])
      [ 8; 16; 32; 64 ]
  in
  T.print
    ~title:"E9a  single query + single deletion (Cong et al. [15]): polynomial and exact"
    ~header:[ "fact-tuples"; "single-query"; "opt"; "exact"; "time-ms" ]
    single_rows;
  (* multi-query: the greedy extension loses; approximations take over *)
  let multi_rows =
    List.map
      (fun nq ->
        let trials = 20 in
        let acc =
          List.init trials (fun t ->
              let rg = rng (8500 + (nq * 31) + t) in
              let spec =
                { Workload.Random_family.default with num_queries = nq; fact_tuples = 10;
                  dim_tuples = 5 }
              in
              let p = Workload.Random_family.generate ~rng:rg spec in
              let prov = D.Provenance.build p in
              let opt = Option.get (D.Brute.solve prov) in
              let greedy = D.Single_query.solve_greedy_multi (D.Arena.build prov) in
              let ga = Option.get (D.General_approx.solve prov) in
              let oc = cost opt.D.Brute.outcome in
              (ratio (cost greedy.D.Single_query.outcome) oc,
               ratio (cost ga.D.General_approx.outcome) oc))
        in
        let finite = List.filter (fun (a, b) -> Float.is_finite a && Float.is_finite b) acc in
        let n = float_of_int (max 1 (List.length finite)) in
        let avg f = List.fold_left (fun s x -> s +. f x) 0.0 finite /. n in
        [
          T.i nq;
          T.f (avg fst);
          T.f (avg snd);
          T.f (List.fold_left (fun s (a, _) -> max s a) 0.0 finite);
          T.f (List.fold_left (fun s (_, b) -> max s b) 0.0 finite);
        ])
      [ 1; 2; 3; 5 ]
  in
  T.print
    ~title:"E9b  multiple queries: per-tuple greedy vs the reduction-based approximation"
    ~header:[ "queries"; "avg greedy"; "avg approx"; "worst greedy"; "worst approx" ]
    multi_rows

(* ---------------- E10: Fig 3 hypergraph classification ---------------- *)

let e10 () =
  let mk edges = Hypergraph.Hgraph.make ~edges () in
  let q1 =
    mk [ ("Q1", [ "T1"; "T2"; "T3" ]); ("Q3", [ "T1"; "T2" ]); ("Q4", [ "T1"; "T3" ]);
         ("Q5", [ "T2"; "T3" ]) ]
  in
  let q2 = mk [ ("Q1", [ "T1"; "T2"; "T3" ]); ("Q3", [ "T1"; "T2" ]); ("Q5", [ "T2"; "T3" ]) ] in
  let q3 = mk [ ("Q1", [ "T1"; "T2"; "T3" ]); ("Q2", [ "T1"; "T2"; "T4" ]); ("Q5", [ "T2"; "T3" ]) ] in
  let rows =
    List.map
      (fun (name, g, expected) ->
        [
          T.s name;
          T.b (Hypergraph.Hgraph.is_acyclic g);
          T.b (Hypergraph.Hgraph.is_forest g);
          T.s expected;
        ])
      [
        ("Q1 = {Q1,Q3,Q4,Q5}", q1, "not a hypertree");
        ("Q2 = {Q1,Q3,Q5}", q2, "hypertree");
        ("Q3 = {Q1,Q2,Q5}", q3, "hypertree");
      ]
  in
  T.print ~title:"E10  Fig. 3: dual hypergraph classification"
    ~header:[ "query set"; "alpha-acyclic"; "hypertree (paper)"; "paper says" ]
    rows

(* ---------------- E11: LP lower bounds ---------------- *)

let e11 () =
  let rows =
    List.map
      (fun seed ->
        let rg = rng (9000 + seed) in
        let { Workload.Forest_family.problem = p; _ } =
          Workload.Forest_family.generate ~rng:rg
            { Workload.Forest_family.default with num_relations = 4; tuples_per_relation = 5 }
        in
        let prov = D.Provenance.build p in
        let lb = Option.value ~default:nan (D.Lp_formulation.lower_bound prov) in
        let opt = Option.get (D.Brute.solve prov) in
        let pd = D.Primal_dual.solve prov in
        let oc = cost opt.D.Brute.outcome in
        [
          T.i seed;
          T.f lb;
          T.f oc;
          T.f (cost pd.D.Primal_dual.outcome);
          T.f (if lb > 1e-12 then oc /. lb else 1.0);
        ])
      [ 1; 2; 3; 4; 5; 6 ]
  in
  T.print
    ~title:"E11  LP relaxation (§IV.C): simplex lower bound vs integral optimum vs primal-dual"
    ~header:[ "instance"; "LP bound"; "opt"; "primal-dual"; "integrality gap" ]
    rows

(* ---------------- E12: source side-effect (Tables II-III) ---------------- *)

let e12 () =
  let rows =
    List.map
      (fun seed ->
        let rg = rng (10_000 + seed) in
        let { Workload.Forest_family.problem = p; _ } =
          Workload.Forest_family.generate ~rng:rg
            { Workload.Forest_family.default with num_relations = 4; tuples_per_relation = 6;
              num_queries = 4 }
        in
        let prov = D.Provenance.build p in
        let view_opt = Option.get (D.Brute.solve prov) in
        let src_exact = Option.get (D.Source_side_effect.solve_exact prov) in
        let src_greedy = Option.get (D.Source_side_effect.solve_greedy prov) in
        [
          T.i seed;
          T.i (D.Problem.deletion_size p);
          T.f src_exact.D.Source_side_effect.source_cost;
          T.f src_greedy.D.Source_side_effect.source_cost;
          T.f (cost src_exact.D.Source_side_effect.outcome);
          T.f (cost view_opt.D.Brute.outcome);
          T.f (R.Stuple.Set.cardinal view_opt.D.Brute.deletion |> float_of_int);
        ])
      [ 1; 2; 3; 4; 5; 6 ]
  in
  T.print
    ~title:
      "E12  source side-effect (Tables II-III): fewest deleted tuples vs the view objective"
    ~header:
      [ "instance"; "||ΔV||"; "src-opt"; "src-greedy"; "view-cost@src-opt"; "view-opt";
        "|ΔD|@view-opt" ]
    rows

(* ---------------- E13: Tables II-V query-class landscape ---------------- *)

let e13 () =
  let schema =
    R.Schema.Db.of_list
      [
        R.Schema.make ~name:"T1" ~attrs:[ "a"; "b" ] ~key:[ 0; 1 ];
        R.Schema.make ~name:"T2" ~attrs:[ "b"; "c"; "d" ] ~key:[ 0; 1 ];
        R.Schema.make ~name:"R" ~attrs:[ "x"; "y" ] ~key:[ 0; 1 ];
        R.Schema.make ~name:"S" ~attrs:[ "x"; "y" ] ~key:[ 0; 1 ];
        R.Schema.make ~name:"U" ~attrs:[ "x"; "y" ] ~key:[ 0; 1 ];
      ]
  in
  let gallery =
    [
      ("project-free join", "Q(X, Y, Z, W) :- T1(X, Y), T2(Y, Z, W)");
      ("paper Q4 (key-preserving)", "Q(X, Y, Z) :- T1(X, Y), T2(Y, Z, W)");
      ("paper Q3 (projection on key)", "Q(X, Z) :- T1(X, Y), T2(Y, Z, W)");
      ("triangle", "Q(X, Y, Z) :- R(X, Y), S(Y, Z), U(Z, X)");
      ("chain", "Q(X, Z) :- R(X, Y), S(Y, Z)");
      ("self-join path", "Q(X, Y, Z) :- R(X, Y), R(Y, Z)");
    ]
  in
  (* FD context: the journal determines the topic *)
  let fds = [ ("T2", R.Fd.make ~lhs:[ "b" ] ~rhs:[ "c" ]) ] in
  let rows =
    List.map
      (fun (name, text) ->
        let q = Cq.Parser.query_of_string text in
        let prof = Cq.Classify.profile schema q in
        let sj = prof.Cq.Classify.self_join_free in
        [
          T.s name;
          T.b prof.Cq.Classify.project_free;
          T.b sj;
          T.b prof.Cq.Classify.key_preserving;
          (if sj then T.b (Cq.Structure.has_head_domination q) else T.s "n/a");
          (if sj then T.b (Cq.Structure.has_fd_head_domination schema fds q) else T.s "n/a");
          (if sj then T.b (Cq.Structure.is_triad_free q) else T.s "n/a");
          T.s
            (if prof.Cq.Classify.key_preserving then "PTime (Cong et al.)"
             else if sj && Cq.Structure.has_head_domination q then "PTime (Kimelfeld)"
             else if sj && Cq.Structure.has_fd_head_domination schema fds q then
               "PTime w/ FDs (Kimelfeld 2012)"
             else if sj then "NP-hard (no head-dom)"
             else "open/hard (self-join)");
        ])
      gallery
  in
  T.print
    ~title:
      "E13  Tables II-V landscape: query classes and the implied single-query complexity \
       (FD context: T2.b -> T2.c)"
    ~header:
      [ "query"; "proj-free"; "sj-free"; "key-pres"; "head-dom"; "fd-head-dom"; "triad-free";
        "view side-effect" ]
    rows

(* ---------------- E14: cleaning accuracy vs number of views ---------------- *)

let e14 () =
  let spec = { Workload.Cleaning.default with depth = 4; tuples_per_relation = 5 } in
  let trials = 15 in
  let rows =
    List.map
      (fun views ->
        let acc =
          List.init trials (fun t ->
              let rg = rng (11_000 + (views * 131) + t) in
              let w = Workload.Cleaning.generate ~rng:rg ~views_with_feedback:views spec in
              let prov = D.Provenance.build w.Workload.Cleaning.problem in
              match D.Brute.solve prov with
              | Some r ->
                let p, rc = Workload.Cleaning.score w r.D.Brute.deletion in
                (p, rc, cost r.D.Brute.outcome)
              | None -> (1.0, 0.0, 0.0))
        in
        let n = float_of_int trials in
        let avg f = List.fold_left (fun s x -> s +. f x) 0.0 acc /. n in
        [
          T.i views;
          T.f (avg (fun (p, _, _) -> p));
          T.f (avg (fun (_, r, _) -> r));
          T.f (avg (fun (_, _, c) -> c));
        ])
      [ 1; 2; 3; 4 ]
  in
  T.print
    ~title:
      "E14  §V cleaning accuracy: repair precision/recall vs number of views giving feedback"
    ~header:[ "views"; "avg precision"; "avg recall"; "avg side-effect" ]
    rows

(* ---------------- E15: ablations ---------------- *)

let e15 () =
  let trials = 20 in
  let acc =
    List.init trials (fun t ->
        let rg = rng (12_000 + t) in
        let { Workload.Forest_family.problem = p; _ } =
          Workload.Forest_family.generate ~rng:rg
            { Workload.Forest_family.default with num_relations = 4; tuples_per_relation = 8;
              num_queries = 5; deletion_fraction = 0.25 }
        in
        let prov = D.Provenance.build p in
        let opt = cost (Option.get (D.Brute.solve prov)).D.Brute.outcome in
        let pd = cost (D.Primal_dual.solve prov).D.Primal_dual.outcome in
        let pd_nord =
          cost (D.Primal_dual.solve ~reverse_delete:false prov).D.Primal_dual.outcome
        in
        let ld = cost (D.Lowdeg.solve prov).D.Lowdeg.outcome in
        let ld_nopr = cost (D.Lowdeg.solve ~prune_wide:false prov).D.Lowdeg.outcome in
        (ratio pd opt, ratio pd_nord opt, ratio ld opt, ratio ld_nopr opt))
  in
  let finite = List.filter (fun (a, b, c, d) -> List.for_all Float.is_finite [ a; b; c; d ]) acc in
  let n = float_of_int (max 1 (List.length finite)) in
  let avg f = List.fold_left (fun s x -> s +. f x) 0.0 finite /. n in
  let worst f = List.fold_left (fun s x -> max s (f x)) 0.0 finite in
  T.print ~title:"E15  ablations: reverse-delete (Alg. 1) and wide-pruning (Alg. 2)"
    ~header:[ "variant"; "avg ratio"; "worst ratio" ]
    [
      [ T.s "primal-dual (full)"; T.f (avg (fun (a, _, _, _) -> a)); T.f (worst (fun (a, _, _, _) -> a)) ];
      [ T.s "primal-dual, no reverse-delete"; T.f (avg (fun (_, b, _, _) -> b)); T.f (worst (fun (_, b, _, _) -> b)) ];
      [ T.s "lowdeg (full)"; T.f (avg (fun (_, _, c, _) -> c)); T.f (worst (fun (_, _, c, _) -> c)) ];
      [ T.s "lowdeg, no wide-pruning"; T.f (avg (fun (_, _, _, d) -> d)); T.f (worst (fun (_, _, _, d) -> d)) ];
    ]

(* ---------------- E16: bounded deletion frontier (Miao et al. [36]) ---------------- *)

let e16 () =
  let rg = rng 16_000 in
  let { Workload.Forest_family.problem = p; _ } =
    Workload.Forest_family.generate ~rng:rg
      { Workload.Forest_family.default with num_relations = 4; tuples_per_relation = 8;
        num_queries = 5; deletion_fraction = 0.3 }
  in
  let prov = D.Provenance.build p in
  let rows =
    D.Bounded.frontier ~slack:4 prov
    |> List.map (fun (k, (r : D.Bounded.result)) ->
           [
             T.i k;
             T.f (cost r.D.Bounded.outcome);
             T.i (R.Stuple.Set.cardinal r.D.Bounded.deletion);
           ])
  in
  let min_k = match D.Bounded.min_budget prov with Some k -> k | None -> -1 in
  T.print
    ~title:
      (Printf.sprintf
         "E16  bounded deletion (Table V context): side-effect vs budget k (min feasible k = %d)"
         min_k)
    ~header:[ "budget k"; "best side-effect"; "|dD| used" ]
    rows

(* ---------------- E17: incremental view maintenance ---------------- *)

let e17 () =
  let rows =
    List.map
      (fun scale ->
        let rg = rng (17_000 + scale) in
        let { Workload.Forest_family.problem = p; _ } =
          Workload.Forest_family.generate ~rng:rg
            { Workload.Forest_family.default with num_relations = 4;
              tuples_per_relation = scale; num_queries = 4; deletion_fraction = 0.0 }
        in
        let db = p.D.Problem.db in
        let dd =
          match R.Instance.stuples db with
          | a :: b :: _ -> R.Stuple.Set.of_list [ a; b ]
          | l -> R.Stuple.Set.of_list l
        in
        let views =
          List.map (fun (q : Cq.Query.t) -> (q, Cq.Eval.evaluate db q)) p.D.Problem.queries
        in
        let _, full_ms =
          time_median (fun () ->
              List.map
                (fun (q, _) -> Cq.Eval.evaluate (R.Instance.delete db dd) q)
                views)
        in
        let incr_views, incr_ms =
          time_median (fun () -> List.map (fun (q, view) -> Cq.Maintain.refresh db q ~view dd) views)
        in
        let correct =
          List.for_all2
            (fun (q, _) v ->
              R.Tuple.Set.equal v (Cq.Eval.evaluate (R.Instance.delete db dd) q))
            views incr_views
        in
        [
          T.i scale;
          T.i (D.Problem.view_size p);
          T.ms full_ms;
          T.ms incr_ms;
          T.f (full_ms /. max 1e-6 incr_ms);
          T.b correct;
        ])
      [ 20; 50; 100; 200 ]
  in
  T.print
    ~title:
      (Printf.sprintf
         "E17  incremental view maintenance: delta refresh vs full re-evaluation (|dD| = 2; \
          ms per call, median of %d samples of at least 1 ms after one warm-up)"
         median_runs)
    ~header:[ "tuples/rel"; "||V||"; "full-ms"; "incr-ms"; "speedup"; "correct" ]
    rows

(* ---------------- E18: join planning ---------------- *)

let e18 () =
  let rows =
    List.map
      (fun (dims, fact, dim) ->
        let rg = rng (18_000 + dims) in
        let p =
          Workload.Random_family.generate ~rng:rg
            { Workload.Random_family.default with num_dimensions = dims;
              dims_per_query = dims; fact_tuples = fact; dim_tuples = dim; num_queries = 1 }
        in
        match p.D.Problem.queries with
        | [ q ] ->
          let adversarial = { q with Cq.Query.body = List.rev q.Cq.Query.body } in
          let naive, naive_ms =
            time_median (fun () -> Cq.Eval.evaluate ~planned:false p.D.Problem.db adversarial)
          in
          let planned, planned_ms =
            time_median (fun () -> Cq.Eval.evaluate ~planned:true p.D.Problem.db adversarial)
          in
          [
            T.i dims;
            T.i fact;
            T.i dim;
            T.ms naive_ms;
            T.ms planned_ms;
            T.f (naive_ms /. max 1e-6 planned_ms);
            T.b (R.Tuple.Set.equal naive planned);
          ]
        | _ -> assert false)
      [ (2, 30, 10); (3, 30, 10); (3, 60, 12) ]
  in
  T.print
    ~title:
      (Printf.sprintf
         "E18  join planning: adversarial atom order, naive left-to-right vs planned \
          evaluation (ms per call, median of %d samples of at least 1 ms after one warm-up)"
         median_runs)
    ~header:[ "dims"; "fact-tuples"; "dim-tuples"; "naive-ms"; "planned-ms"; "speedup"; "same" ]
    rows

(* ---------------- E19: QOCO-style oracle loop, batch-size sweep ---------------- *)

let e19 () =
  let trials = 10 in
  let rows =
    List.map
      (fun batch ->
        let acc =
          List.init trials (fun t ->
              let rg = rng (19_000 + (batch * 37) + t) in
              Workload.Oracle_loop.run ~rng:rg
                {
                  Workload.Oracle_loop.cleaning =
                    { Workload.Cleaning.depth = 4; tuples_per_relation = 5;
                      num_corruptions = 3 };
                  batch_size = batch;
                  max_questions = 2000;
                })
        in
        let n = float_of_int trials in
        let avg f = List.fold_left (fun s o -> s +. f o) 0.0 acc /. n in
        [
          T.i batch;
          T.f (avg (fun o -> float_of_int o.Workload.Oracle_loop.questions));
          T.f (avg (fun o -> float_of_int o.Workload.Oracle_loop.repair_rounds));
          T.f (avg (fun o -> o.Workload.Oracle_loop.precision));
          T.f (avg (fun o -> o.Workload.Oracle_loop.recall));
          T.f (avg (fun o -> float_of_int o.Workload.Oracle_loop.residual_wrong));
        ])
      [ 1; 3; 5; 10 ]
  in
  T.print
    ~title:
      "E19  §V oracle cleaning loop: batch size vs interactions, rounds and accuracy"
    ~header:[ "batch"; "avg questions"; "avg rounds"; "precision"; "recall"; "residual" ]
    rows

(* ---------------- E20: data skew (Zipf) sweep ---------------- *)

let e20 () =
  let trials = 12 in
  let rows =
    List.map
      (fun skew ->
        let acc =
          List.init trials (fun t ->
              let rg = rng (20_000 + (int_of_float (skew *. 10.0) * 53) + t) in
              let p =
                Workload.Random_family.generate ~rng:rg
                  { Workload.Random_family.default with skew; fact_tuples = 12;
                    dim_tuples = 6; num_queries = 3 }
              in
              let prov = D.Provenance.build p in
              let stats = D.Stats.compute prov in
              match D.Brute.solve prov, D.General_approx.solve prov with
              | Some opt, Some ga ->
                Some
                  ( stats.D.Stats.preserved_degree_max,
                    cost opt.D.Brute.outcome,
                    ratio (cost ga.D.General_approx.outcome) (cost opt.D.Brute.outcome) )
              | _ -> None)
          |> List.filter_map Fun.id
        in
        let n = float_of_int (max 1 (List.length acc)) in
        let avg f = List.fold_left (fun s x -> s +. f x) 0.0 acc /. n in
        [
          T.f skew;
          T.f (avg (fun (d, _, _) -> float_of_int d));
          T.f (avg (fun (_, o, _) -> o));
          T.f (avg (fun (_, _, r) -> if Float.is_finite r then r else 1.0));
        ])
      [ 0.0; 0.8; 1.2; 1.6 ]
  in
  T.print
    ~title:
      "E20  data skew (Zipf exponent): hot tuples raise preserved degree and repair damage"
    ~header:[ "skew s"; "avg max degree"; "avg opt cost"; "avg approx ratio" ]
    rows

(* ---------------- E21: end-to-end scaling on the bibliographic domain ---------------- *)

let e21 () =
  let rows =
    List.map
      (fun (authors, journals) ->
        let rg = rng (21_000 + authors) in
        let spec =
          { Workload.Bibliography.default with num_authors = authors;
            num_journals = journals }
        in
        let p, gen_ms = time (fun () -> Workload.Bibliography.generate ~rng:rg spec) in
        let prov, prov_ms = time (fun () -> D.Provenance.build p) in
        let pd, pd_ms = time (fun () -> D.Primal_dual.solve prov) in
        let _, ld_ms = time (fun () -> D.Lowdeg.solve prov) in
        let _, ga_ms = time (fun () -> D.General_approx.solve prov) in
        [
          T.i authors;
          T.i (R.Instance.size p.D.Problem.db);
          T.i (D.Problem.view_size p);
          T.i (D.Problem.deletion_size p);
          T.f gen_ms;
          T.f prov_ms;
          T.f pd_ms;
          T.f ld_ms;
          T.f ga_ms;
          T.f (cost pd.D.Primal_dual.outcome);
        ])
      [ (50, 12); (200, 25); (800, 50) ]
  in
  T.print
    ~title:
      "E21  end-to-end scaling, bibliographic domain (Zipf-hot venues): per-stage wall time"
    ~header:
      [ "authors"; "|D|"; "||V||"; "||dV||"; "gen-ms"; "prov-ms"; "pd-ms"; "lowdeg-ms";
        "general-ms"; "pd-cost" ]
    rows

(* ---------------- driver ---------------- *)

let experiments =
  [
    ("e1", e1); ("e2", e2); ("e3", e3); ("e4", e4); ("e5", e5); ("e6", e6);
    ("e7", e7); ("e8", e8); ("e9", e9); ("e10", e10); ("e11", e11); ("e12", e12);
    ("e13", e13); ("e14", e14); ("e15", e15); ("e16", e16); ("e17", e17); ("e18", e18); ("e19", e19); ("e20", e20); ("e21", e21);
  ]

let run which =
  match which with
  | "all" ->
    List.iter (fun (_, f) -> f ()) experiments;
    `Ok ()
  | name -> (
    match List.assoc_opt name experiments with
    | Some f ->
      f ();
      `Ok ()
    | None -> `Error (false, "unknown experiment " ^ name ^ " (e1..e21 or all)"))

let () =
  let open Cmdliner in
  let exp =
    Arg.(value & opt string "all" & info [ "e"; "exp" ] ~docv:"EXP" ~doc:"Experiment id (e1..e21) or 'all'.")
  in
  let csv =
    Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"DIR"
           ~doc:"Also write every table as a CSV file under $(docv).")
  in
  let run_with csv exp =
    Tables.csv_dir := csv;
    run exp
  in
  let cmd =
    Cmd.v
      (Cmd.info "experiments" ~doc:"Reproduce the paper's tables and figures (see EXPERIMENTS.md)")
      Term.(ret (const run_with $ csv $ exp))
  in
  exit (Cmd.eval cmd)
