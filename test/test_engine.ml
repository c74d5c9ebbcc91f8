(* The incremental engine: the differential property suite proving the
   incrementally patched provenance/arena bit-identical to
   rebuild-from-scratch over random delete/insert/solve streams, plus the
   Par pool, typed delta requests, Solution JSON round-tripping and the
   batch script parser. *)

open Util
module R = Relational
module D = Deleprop
module B = Setcover.Bitset

let seeds = QCheck2.Gen.int_range 0 10_000

(* ---- Par.Pool ---- *)

let test_pool_map () =
  let pool = D.Par.Pool.create ~domains:3 () in
  for n = 0 to 40 do
    let xs = List.init n (fun i -> i) in
    Alcotest.(check (list int)) "pool map = List.map"
      (List.map (fun x -> (x * x) + 1) xs)
      (D.Par.Pool.map pool (fun x -> (x * x) + 1) xs)
  done;
  (* same pool, reused across jobs of different types *)
  Alcotest.(check (list string)) "reuse, other type" [ "0"; "1"; "2" ]
    (D.Par.Pool.map pool string_of_int [ 0; 1; 2 ]);
  D.Par.Pool.shutdown pool;
  Alcotest.(check (list int)) "after shutdown: sequential fallback" [ 2; 4 ]
    (D.Par.Pool.map pool (fun x -> 2 * x) [ 1; 2 ]);
  D.Par.Pool.shutdown pool (* idempotent *)

let test_pool_exception () =
  let pool = D.Par.Pool.create ~domains:2 () in
  Alcotest.check_raises "first exception re-raised" (Failure "boom") (fun () ->
      ignore
        (D.Par.Pool.map pool
           (fun x -> if x = 3 then failwith "boom" else x)
           [ 0; 1; 2; 3; 4; 5 ]));
  (* the pool survives a failing job *)
  Alcotest.(check (list int)) "pool still works" [ 1; 2; 3 ]
    (D.Par.Pool.map pool (fun x -> x + 1) [ 0; 1; 2 ]);
  D.Par.Pool.shutdown pool

let test_pool_nested () =
  let pool = D.Par.Pool.create ~domains:3 () in
  (* inner maps degrade to sequential instead of deadlocking — whether
     the item runs on a worker or on the driving caller *)
  let rows = List.init 6 (fun i -> List.init 5 (fun j -> (i * 10) + j)) in
  let expect = List.map (List.map (fun x -> x + 1)) rows in
  Alcotest.(check (list (list int))) "nested pool map"
    expect
    (D.Par.Pool.map pool (fun row -> D.Par.Pool.map pool (fun x -> x + 1) row) rows);
  D.Par.Pool.shutdown pool

let test_par_map_pool_arg () =
  let pool = D.Par.Pool.create ~domains:2 () in
  Alcotest.(check (list int)) "Par.map ?pool" [ 0; 2; 4 ]
    (D.Par.map ~pool (fun x -> 2 * x) [ 0; 1; 2 ]);
  D.Par.Pool.shutdown pool

(* ---- Delta_request ---- *)

let fig1 () = Workload.Author_journal.scenario_q4 ()

let q4 vs = R.Tuple.strs vs

let test_delta_request_validate () =
  let p = fig1 () in
  let mv = D.Matview.create p.D.Problem.db p.D.Problem.queries in
  let views =
    List.fold_left
      (fun m (q : Cq.Query.t) -> D.Smap.add q.name (D.Matview.view mv q.name) m)
      D.Smap.empty p.D.Problem.queries
  in
  Alcotest.(check bool) "valid request" true
    (D.Delta_request.validate ~views
       [ D.Delta_request.make ~view:"Q4" [ q4 [ "John"; "TKDE"; "XML" ] ] ]
    = Ok ());
  (match
     D.Delta_request.validate ~views
       [ D.Delta_request.make ~view:"Q9" [ q4 [ "John"; "TKDE"; "XML" ] ] ]
   with
  | Error (D.Delta_request.Unknown_view { view; known }) ->
    Alcotest.(check string) "unknown view name" "Q9" view;
    Alcotest.(check (list string)) "known views" [ "Q4" ] known
  | _ -> Alcotest.fail "expected Unknown_view");
  match
    D.Delta_request.validate ~views
      [
        D.Delta_request.make ~view:"Q4" [ q4 [ "John"; "TKDE"; "XML" ] ];
        D.Delta_request.make ~view:"Q4" [ q4 [ "Nobody"; "TKDE"; "XML" ] ];
      ]
  with
  | Error (D.Delta_request.Not_in_view { view; tuple }) ->
    Alcotest.(check string) "view of bad tuple" "Q4" view;
    Alcotest.check Util.tuple "bad tuple" (q4 [ "Nobody"; "TKDE"; "XML" ]) tuple
  | _ -> Alcotest.fail "expected Not_in_view"

let test_matview_typed_problem () =
  let p = fig1 () in
  let mv = D.Matview.create p.D.Problem.db p.D.Problem.queries in
  let reqs = [ D.Delta_request.make ~view:"Q4" [ q4 [ "John"; "TKDE"; "XML" ] ] ] in
  (match D.Matview.problem ~requests:reqs mv with
  | Ok built ->
    (* the untyped problem the removed [Matview.problem_legacy] built *)
    let legacy =
      D.Problem.make ~db:p.D.Problem.db ~queries:p.D.Problem.queries
        ~deletions:(D.Delta_request.to_legacy reqs)
        ~allow_non_key_preserving:true ()
    in
    Alcotest.check Util.tuple_set "same ΔV as legacy path"
      (D.Problem.deletion legacy "Q4") (D.Problem.deletion built "Q4")
  | Error e -> Alcotest.fail (D.Delta_request.error_to_string e));
  match
    D.Matview.problem
      ~requests:[ D.Delta_request.make ~view:"Q4" [ q4 [ "Ghost"; "X"; "Y" ] ] ]
      mv
  with
  | Error (D.Delta_request.Not_in_view _) -> ()
  | _ -> Alcotest.fail "expected typed validation error"

(* ---- Solution JSON round-trip ---- *)

(* minimal extraction helpers for the flat one-line objects
   Report.solution encodes (no nested arrays except "deleted", no
   escaped quotes in facts) *)

let field_string json key =
  let pat = Printf.sprintf "\"%s\":\"" key in
  match Astring.String.find_sub ~sub:pat json with
  | None -> Alcotest.fail (Printf.sprintf "field %s not found in %s" key json)
  | Some i ->
    let start = i + String.length pat in
    let stop = String.index_from json start '"' in
    String.sub json start (stop - start)

let field_raw json key =
  let pat = Printf.sprintf "\"%s\":" key in
  match Astring.String.find_sub ~sub:pat json with
  | None -> Alcotest.fail (Printf.sprintf "field %s not found in %s" key json)
  | Some i ->
    let start = i + String.length pat in
    let stop = ref start in
    while
      !stop < String.length json
      && (match json.[!stop] with ',' | '}' | ']' -> false | _ -> true)
    do
      incr stop
    done;
    String.sub json start (!stop - start)

let deleted_of_json json =
  let pat = "\"deleted\":[" in
  match Astring.String.find_sub ~sub:pat json with
  | None -> Alcotest.fail "deleted field not found"
  | Some i ->
    let start = i + String.length pat in
    let stop = String.index_from json start ']' in
    let body = String.sub json start (stop - start) in
    if String.trim body = "" then R.Stuple.Set.empty
    else
      String.split_on_char ',' body
      (* fact strings contain commas: re-join on fact boundaries "," *)
      |> List.fold_left
           (fun (acc, cur) piece ->
             let cur = if cur = "" then piece else cur ^ "," ^ piece in
             if String.length cur > 0 && cur.[String.length cur - 1] = '"' then
               (cur :: acc, "")
             else (acc, cur))
           ([], "")
      |> fst
      |> List.map (fun s ->
             let s = String.trim s in
             let s = String.sub s 1 (String.length s - 2) in
             let rel, tuple = R.Serial.fact_of_string s in
             R.Stuple.make rel tuple)
      |> R.Stuple.Set.of_list

let test_solution_json_roundtrip () =
  let prov = D.Provenance.build (fig1 ()) in
  let solutions = D.Portfolio.solutions (D.Arena.build prov) in
  Alcotest.(check bool) "portfolio not empty" true (solutions <> []);
  List.iter
    (fun (s : D.Solution.t) ->
      let json = D.Report.to_string (D.Report.solution s) in
      Alcotest.(check string) "algorithm" s.D.Solution.algorithm
        (field_string json "algorithm");
      Alcotest.check Util.stuple_set "deleted round-trips" s.D.Solution.deleted
        (deleted_of_json json);
      Alcotest.(check bool) "cost round-trips" true
        (Float.equal (D.Solution.cost s) (float_of_string (field_raw json "cost")));
      Alcotest.(check bool) "elapsed round-trips" true
        (Float.equal s.D.Solution.elapsed_ms
           (float_of_string (field_raw json "elapsed_ms")));
      Alcotest.(check string) "feasible" "true" (field_raw json "feasible"))
    solutions

(* every [Float] the encoder prints reads back bit-equal *)
let test_report_float_roundtrip () =
  List.iter
    (fun x ->
      let text = D.Report.to_string (D.Report.Float x) in
      Alcotest.(check int64) text (Int64.bits_of_float x)
        (Int64.bits_of_float (float_of_string text)))
    [ 0.1 +. 0.2; 1. /. 3.; 2.718281828459045; 1e-300; 5.0; -0.75 ]

(* a weighted one-shard plan: the shard and its composite solution cost
   the same 1/3, and both objects print it as the same text *)
let test_report_shard_cost_text () =
  let third = 1. /. 3. in
  let p =
    D.Problem.make ~db:(Workload.Author_journal.db ())
      ~queries:[ Workload.Author_journal.q4 ]
      ~deletions:[ ("Q4", [ R.Tuple.strs [ "John"; "TKDE"; "XML" ] ]) ]
      ~weights:
        (D.Weights.of_list
           [ (D.Vtuple.make "Q4" (R.Tuple.strs [ "John"; "TKDE"; "CUBE" ]), third) ])
      ()
  in
  let r = D.Planner.solve (D.Arena.build (D.Provenance.build p)) in
  match (r.D.Planner.shards, r.D.Planner.solutions) with
  | [ d ], s :: _ ->
    let shard = field_raw (D.Report.to_string (D.Report.shard_decision d)) "cost" in
    let sol = field_raw (D.Report.to_string (D.Report.solution s)) "cost" in
    Alcotest.(check string) "one cost text" sol shard;
    Alcotest.(check bool) "reads back as 1/3" true
      (Float.equal third (float_of_string shard))
  | _ -> Alcotest.fail "expected one shard and a solution"

(* ---- engine vs rebuild-from-scratch: the differential property ---- *)

let cert_equal (a : D.Solution.certificate) (b : D.Solution.certificate) =
  match (a, b) with
  | D.Solution.Exact, D.Solution.Exact
  | D.Solution.Heuristic, D.Solution.Heuristic
  | D.Solution.Anytime, D.Solution.Anytime ->
    true
  | D.Solution.Dual_bound x, D.Solution.Dual_bound y
  | D.Solution.Ratio x, D.Solution.Ratio y ->
    Float.equal x y
  | ( D.Solution.Composite { shards = x; factor = fx },
      D.Solution.Composite { shards = y; factor = fy } ) ->
    x = y && Option.equal Float.equal fx fy
  | _ -> false

let float_array_equal a b =
  Array.length a = Array.length b
  &&
  let ok = ref true in
  Array.iteri (fun i x -> if not (Float.equal x b.(i)) then ok := false) a;
  !ok

let check_prov_equal tag (e : D.Provenance.t) (s : D.Provenance.t) =
  Alcotest.(check bool) (tag ^ ": views") true
    (D.Smap.equal R.Tuple.Set.equal e.D.Provenance.views s.D.Provenance.views);
  Alcotest.(check bool) (tag ^ ": witness") true
    (D.Vtuple.Map.equal R.Stuple.Set.equal e.D.Provenance.witness
       s.D.Provenance.witness);
  Alcotest.(check bool) (tag ^ ": witness_path") true
    (D.Vtuple.Map.equal (List.equal R.Stuple.equal) e.D.Provenance.witness_path
       s.D.Provenance.witness_path);
  Alcotest.(check bool) (tag ^ ": containing") true
    (R.Stuple.Map.equal D.Vtuple.Set.equal e.D.Provenance.containing
       s.D.Provenance.containing);
  Alcotest.check Util.vtuple_set (tag ^ ": bad") s.D.Provenance.bad e.D.Provenance.bad;
  Alcotest.check Util.vtuple_set (tag ^ ": preserved") s.D.Provenance.preserved
    e.D.Provenance.preserved;
  Alcotest.(check bool) (tag ^ ": db") true
    (R.Instance.equal e.D.Provenance.problem.D.Problem.db
       s.D.Provenance.problem.D.Problem.db)

let check_arena_equal tag (e : D.Arena.t) (s : D.Arena.t) =
  Alcotest.(check bool) (tag ^ ": stuples") true
    (e.D.Arena.stuples = s.D.Arena.stuples);
  Alcotest.(check bool) (tag ^ ": vtuples") true
    (Array.length e.D.Arena.vtuples = Array.length s.D.Arena.vtuples
    && Array.for_all2 D.Vtuple.equal e.D.Arena.vtuples s.D.Arena.vtuples);
  Alcotest.(check bool) (tag ^ ": witness") true (e.D.Arena.witness = s.D.Arena.witness);
  Alcotest.(check bool) (tag ^ ": containing") true
    (e.D.Arena.containing = s.D.Arena.containing);
  Alcotest.(check bool) (tag ^ ": bad") true (B.equal e.D.Arena.bad s.D.Arena.bad);
  Alcotest.(check bool) (tag ^ ": preserved") true
    (B.equal e.D.Arena.preserved s.D.Arena.preserved);
  Alcotest.(check bool) (tag ^ ": weights bit-identical") true
    (float_array_equal e.D.Arena.weights s.D.Arena.weights);
  Alcotest.(check bool) (tag ^ ": bad_order") true
    (e.D.Arena.bad_order = s.D.Arena.bad_order);
  Alcotest.(check bool) (tag ^ ": forest_case") true
    (Bool.equal e.D.Arena.forest_case s.D.Arena.forest_case);
  Alcotest.(check bool) (tag ^ ": dead_s") true (B.equal e.D.Arena.dead_s s.D.Arena.dead_s);
  Alcotest.(check bool) (tag ^ ": dead_v") true (B.equal e.D.Arena.dead_v s.D.Arena.dead_v);
  Alcotest.(check bool) (tag ^ ": depths") true (e.D.Arena.depths = s.D.Arena.depths)

let check_solutions_equal tag (es : D.Solution.t list) (ss : D.Solution.t list) =
  Alcotest.(check int) (tag ^ ": same solution count") (List.length ss)
    (List.length es);
  List.iter2
    (fun (e : D.Solution.t) (s : D.Solution.t) ->
      Alcotest.(check string) (tag ^ ": algorithm") s.D.Solution.algorithm
        e.D.Solution.algorithm;
      Alcotest.check Util.stuple_set (tag ^ ": deleted") s.D.Solution.deleted
        e.D.Solution.deleted;
      let oe = e.D.Solution.outcome and os = s.D.Solution.outcome in
      Alcotest.(check bool) (tag ^ ": cost bit-identical") true
        (Float.equal oe.D.Side_effect.cost os.D.Side_effect.cost);
      Alcotest.(check bool) (tag ^ ": balanced bit-identical") true
        (Float.equal oe.D.Side_effect.balanced_cost os.D.Side_effect.balanced_cost);
      Alcotest.check Util.vtuple_set (tag ^ ": side_effect")
        os.D.Side_effect.side_effect oe.D.Side_effect.side_effect;
      Alcotest.check Util.vtuple_set (tag ^ ": residual_bad")
        os.D.Side_effect.residual_bad oe.D.Side_effect.residual_bad;
      Alcotest.(check bool) (tag ^ ": feasible") os.D.Side_effect.feasible
        oe.D.Side_effect.feasible;
      Alcotest.(check bool) (tag ^ ": certificate") true
        (cert_equal e.D.Solution.certificate s.D.Solution.certificate))
    es ss

(* rebuild everything from the engine's current database, from scratch *)
let scratch_index queries (db : R.Instance.t) =
  let problem = D.Problem.make ~db ~queries ~deletions:[] () in
  let prov = D.Provenance.build problem in
  (prov, D.Arena.build prov)

(* what a session round must answer: the planner on a scratch rebuild
   of the database, re-targeted at the round's requests *)
let scratch_solutions queries (db : R.Instance.t) reqs =
  let prov, arena = scratch_index queries db in
  let prov' = D.Provenance.with_deletions prov reqs in
  (D.Planner.solve (D.Arena.with_deletions arena prov')).D.Planner.solutions

(* random view tuples of the current index, as per-view requests *)
let random_requests rng (prov : D.Provenance.t) =
  let all =
    D.Smap.fold
      (fun view ts acc ->
        R.Tuple.Set.fold (fun t acc -> (view, t) :: acc) ts acc)
      prov.D.Provenance.views []
  in
  match all with
  | [] -> []
  | _ ->
    let n = 1 + Random.State.int rng (min 3 (List.length all)) in
    let picked =
      List.init n (fun _ -> List.nth all (Random.State.int rng (List.length all)))
    in
    (* group per view, dropping duplicate tuples *)
    List.fold_left
      (fun acc (view, t) ->
        if List.exists (fun (v, ts) -> v = view && List.mem t ts) acc then acc
        else if List.mem_assoc view acc then
          List.map (fun (v, ts) -> if v = view then (v, t :: ts) else (v, ts)) acc
        else (view, [ t ]) :: acc)
      [] picked
    |> List.map (fun (view, ts) -> D.Delta_request.make ~view ts)

let check_stream seed =
  let rng = rng seed in
  let { Workload.Forest_family.problem = p; _ } =
    Workload.Forest_family.generate ~rng
      {
        Workload.Forest_family.default with
        num_relations = 4;
        tuples_per_relation = 6;
        num_queries = 3;
        deletion_fraction = 0.0;
      }
  in
  let queries = p.D.Problem.queries in
  let eng = Engine.create ~domains:1 p.D.Problem.db queries in
  let deleted_pool = ref [] in
  let check_index tag =
    let prov_e, arena_e = Engine.index eng in
    let prov_s, arena_s = scratch_index queries (Engine.db eng) in
    check_prov_equal tag prov_e prov_s;
    (* the live arena may carry tombstones; its compacted form must be
       bit-identical to a scratch build *)
    check_arena_equal tag (D.Arena.compact arena_e) arena_s;
    (* the engine's materialized views track the index *)
    List.iter
      (fun (q : Cq.Query.t) ->
        Alcotest.check Util.tuple_set (tag ^ ": view " ^ q.name)
          (Option.value ~default:R.Tuple.Set.empty
             (D.Smap.find_opt q.name prov_s.D.Provenance.views))
          (Engine.view eng q.name))
      queries
  in
  check_index "initial";
  for step = 1 to 10 do
    let tag = Printf.sprintf "seed %d step %d" seed step in
    match Random.State.int rng 4 with
    | 0 | 1 -> (
      (* solve + apply best *)
      let prov_e, _ = Engine.index eng in
      match random_requests rng prov_e with
      | [] -> ()
      | reqs -> (
        let scratch = scratch_solutions queries (Engine.db eng) reqs in
        match Engine.request eng reqs with
        | Error e -> Alcotest.fail (tag ^ ": " ^ D.Delta_request.error_to_string e)
        | Ok plan ->
          check_solutions_equal tag plan.Engine.solutions scratch;
          (match Engine.apply eng plan with
          | Some s ->
            deleted_pool :=
              R.Stuple.Set.elements s.D.Solution.deleted @ !deleted_pool
          | None -> ());
          check_index tag))
    | 2 -> (
      (* direct source deletion *)
      match R.Instance.stuples (Engine.db eng) with
      | [] -> ()
      | sts ->
        let st = List.nth sts (Random.State.int rng (List.length sts)) in
        Engine.delete eng (R.Stuple.Set.singleton st);
        deleted_pool := st :: !deleted_pool;
        check_index tag)
    | _ -> (
      (* re-insert a previously deleted tuple: patches the index in place *)
      match !deleted_pool with
      | [] -> ()
      | st :: rest ->
        deleted_pool := rest;
        if not (R.Instance.mem (Engine.db eng) st) then begin
          Engine.insert eng st;
          check_index tag
        end)
  done;
  check_index "final";
  Engine.close eng;
  true

let prop_stream =
  qcheck ~count:15 "engine: incremental = rebuild over random streams" seeds
    check_stream

(* ---- mixed delta streams: symmetric updates through [apply_delta] ---- *)

let check_partition_equal tag (e : D.Arena.partition) (s : D.Arena.partition) =
  Alcotest.(check int) (tag ^ ": num_components") s.D.Arena.num_components
    e.D.Arena.num_components;
  Alcotest.(check bool) (tag ^ ": comp_of_sid identical") true
    (e.D.Arena.comp_of_sid = s.D.Arena.comp_of_sid);
  Alcotest.(check bool) (tag ^ ": comp_of_vid identical") true
    (e.D.Arena.comp_of_vid = s.D.Arena.comp_of_vid)

(* Ten rounds of interleaved deletes + re-inserts committed as ONE
   symmetric [Engine.apply_delta] transition each (solve + apply every
   third round); after every commit the live index, the canonical
   partition its component index exports, and the views must be
   bit-identical to a scratch rebuild of the engine's database, and
   every solve must answer what the planner answers on that rebuild. *)
let check_mixed_stream ?(scale = 6) ?(domains = 1) seed =
  let rng = rng seed in
  let { Workload.Forest_family.problem = p; _ } =
    Workload.Forest_family.generate ~rng
      {
        Workload.Forest_family.default with
        num_relations = 4;
        tuples_per_relation = scale;
        num_queries = 3;
        deletion_fraction = 0.0;
      }
  in
  let queries = p.D.Problem.queries in
  let eng = Engine.create ~domains p.D.Problem.db queries in
  let deleted_pool = ref [] in
  let inserts_applied = ref 0 in
  let check_index tag =
    let prov_e, arena_e = Engine.index eng in
    let prov_s, arena_s = scratch_index queries (Engine.db eng) in
    check_prov_equal tag prov_e prov_s;
    (* the live arena may carry tombstones; its compacted form must be
       bit-identical to a scratch build, and the live component index,
       compacted alongside, must export the scratch partition's
       canonical labels exactly *)
    check_arena_equal tag (D.Arena.compact arena_e) arena_s;
    check_partition_equal tag
      (D.Component_index.partition
         (D.Component_index.compact (Engine.component_index eng) ~before:arena_e))
      (D.Arena.partition arena_s);
    List.iter
      (fun (q : Cq.Query.t) ->
        Alcotest.check Util.tuple_set (tag ^ ": view " ^ q.name)
          (Option.value ~default:R.Tuple.Set.empty
             (D.Smap.find_opt q.name prov_s.D.Provenance.views))
          (Engine.view eng q.name))
      queries
  in
  check_index "mixed initial";
  for step = 1 to 10 do
    let tag = Printf.sprintf "mixed seed %d step %d" seed step in
    (* a symmetric update: up to two source deletions plus the re-insert
       of a previously deleted tuple, committed in one transition *)
    let deletes =
      match R.Instance.stuples (Engine.db eng) with
      | [] -> R.Stuple.Set.empty
      | sts ->
        List.init
          (1 + Random.State.int rng 2)
          (fun _ -> List.nth sts (Random.State.int rng (List.length sts)))
        |> R.Stuple.Set.of_list
    in
    let inserts =
      match !deleted_pool with
      | [] -> R.Stuple.Set.empty
      | st :: rest ->
        deleted_pool := rest;
        R.Stuple.Set.singleton st
    in
    let applied = Engine.apply_delta eng (D.Delta.make ~deletes ~inserts ()) in
    deleted_pool :=
      R.Stuple.Set.elements
        (R.Stuple.Set.diff applied.D.Delta.deletes applied.D.Delta.inserts)
      @ !deleted_pool;
    inserts_applied := !inserts_applied + R.Stuple.Set.cardinal applied.D.Delta.inserts;
    check_index tag;
    if step mod 3 = 0 then begin
      let prov_e, _ = Engine.index eng in
      match random_requests rng prov_e with
      | [] -> ()
      | reqs -> (
        let scratch = scratch_solutions queries (Engine.db eng) reqs in
        match Engine.request eng reqs with
        | Error e -> Alcotest.fail (tag ^ ": " ^ D.Delta_request.error_to_string e)
        | Ok plan ->
          check_solutions_equal tag plan.Engine.solutions scratch;
          (match Engine.apply eng plan with
          | Some s ->
            deleted_pool :=
              R.Stuple.Set.elements s.D.Solution.deleted @ !deleted_pool
          | None -> ());
          check_index (tag ^ " after solve"))
    end
  done;
  check_index "mixed final";
  let s = Engine.stats eng in
  Alcotest.(check int) "inserts counted" !inserts_applied s.Engine.tuples_inserted;
  Alcotest.(check bool) "some inserts were patched" true (s.Engine.tuples_inserted > 0);
  Engine.close eng;
  true

let prop_mixed_stream =
  qcheck ~count:10 "engine: mixed delta stream = rebuild (planner)" seeds
    check_mixed_stream

(* the same stream with the planner's shard solves on a two-domain pool *)
let prop_mixed_stream_domains =
  qcheck ~count:10 "engine: mixed delta stream = rebuild (domains 2)" seeds
    (check_mixed_stream ~domains:2)

(* the acceptance bar pinned at forest scale 40: one 10-round mixed
   session, exactly one index build, every insert patched, state
   bit-identical to rebuild-per-round throughout *)
let test_engine_mixed_scale40 () = ignore (check_mixed_stream ~scale:40 40)

(* ---- engine session on Fig. 1 ---- *)

let test_engine_fig1 () =
  let p = fig1 () in
  let eng = Engine.create ~domains:1 p.D.Problem.db p.D.Problem.queries in
  let reqs = [ D.Delta_request.make ~view:"Q4" [ q4 [ "John"; "TKDE"; "XML" ] ] ] in
  (match Engine.request eng reqs with
  | Error e -> Alcotest.fail (D.Delta_request.error_to_string e)
  | Ok plan ->
    Alcotest.(check bool) "has feasible solutions" true (plan.Engine.solutions <> []);
    let best = List.hd plan.Engine.solutions in
    check_float "optimal cost is 1" 1.0 (D.Solution.cost best);
    (match Engine.apply eng plan with
    | None -> Alcotest.fail "apply returned no solution"
    | Some s ->
      Alcotest.(check bool) "applied the ranked best" true
        (R.Stuple.Set.equal s.D.Solution.deleted best.D.Solution.deleted));
    (* the retracted answer is gone from the maintained view *)
    Alcotest.(check bool) "view updated" false
      (R.Tuple.Set.mem (q4 [ "John"; "TKDE"; "XML" ]) (Engine.view eng "Q4")));
  (* unknown view -> typed error, not an exception *)
  (match Engine.request eng [ D.Delta_request.make ~view:"Q9" [] ] with
  | Error (D.Delta_request.Unknown_view _) -> ()
  | _ -> Alcotest.fail "expected Unknown_view");
  (* an insert patches the live index; it never triggers a rebuild *)
  Engine.insert eng (R.Stuple.make "T1" (R.Tuple.strs [ "Zoe"; "VLDB" ]));
  let s = Engine.stats eng in
  Alcotest.(check int) "rounds" 1 s.Engine.rounds;
  Alcotest.(check int) "applies" 1 s.Engine.applies;
  Alcotest.(check int) "patches" 1 s.Engine.patches;
  Alcotest.(check bool) "tuples deleted" true (s.Engine.tuples_deleted >= 1);
  Alcotest.(check int) "tuples inserted" 1 s.Engine.tuples_inserted;
  Engine.close eng

let test_engine_domains_equal () =
  let p = fig1 () in
  let reqs = [ D.Delta_request.make ~view:"Q4" [ q4 [ "John"; "TKDE"; "XML" ] ] ] in
  let solve domains =
    let eng = Engine.create ~domains p.D.Problem.db p.D.Problem.queries in
    let r =
      match Engine.request eng reqs with
      | Ok plan -> plan.Engine.solutions
      | Error e -> Alcotest.fail (D.Delta_request.error_to_string e)
    in
    Engine.close eng;
    r
  in
  check_solutions_equal "domains 2 = domains 1" (solve 2) (solve 1)

(* ---- Script ---- *)

let test_script_parse () =
  let text =
    "# comment\n\
     solve Q4(John, TKDE, XML); Q4(Tom, TKDE, XML)\n\
     \n\
     insert T1(Ann, TODS)\n\
     delete T2(TODS, XML, 30)\n"
  in
  match Engine.Script.parse text with
  | Error e -> Alcotest.fail e
  | Ok lines -> (
    Alcotest.(check int) "three ops" 3 (List.length lines);
    Alcotest.(check (list int)) "source line numbers" [ 2; 4; 5 ]
      (List.map (fun (l : Engine.Script.line) -> l.Engine.Script.lineno) lines);
    (match List.nth lines 0 with
    | { Engine.Script.op = Engine.Script.Solve [ r ]; text; _ } ->
      Alcotest.(check string) "solve view" "Q4" r.D.Delta_request.view;
      Alcotest.(check int) "grouped tuples" 2 (List.length r.D.Delta_request.tuples);
      Alcotest.(check bool) "line text kept" true
        (Astring.String.is_prefix ~affix:"solve Q4" text)
    | _ -> Alcotest.fail "expected one grouped solve request");
    (match List.nth lines 1 with
    | { Engine.Script.op = Engine.Script.Insert st; _ } ->
      Alcotest.(check string) "insert rel" "T1" st.R.Stuple.rel
    | _ -> Alcotest.fail "expected insert");
    match List.nth lines 2 with
    | { Engine.Script.op = Engine.Script.Delete st; _ } ->
      Alcotest.(check string) "delete rel" "T2" st.R.Stuple.rel
    | _ -> Alcotest.fail "expected delete")

let test_script_parse_errors () =
  (match Engine.Script.parse "solve\n" with
  | Error e -> Alcotest.(check bool) "line number reported" true
                 (Astring.String.is_prefix ~affix:"line 1" e)
  | Ok _ -> Alcotest.fail "bare solve must fail");
  (match Engine.Script.parse "# ok\nfrobnicate T1(x)\n" with
  | Error e -> Alcotest.(check bool) "unknown op on line 2" true
                 (Astring.String.is_prefix ~affix:"line 2" e)
  | Ok _ -> Alcotest.fail "unknown op must fail");
  match Engine.Script.parse "insert T1(unterminated\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad fact must fail"

let test_script_replay () =
  let p = fig1 () in
  let eng = Engine.create ~domains:1 p.D.Problem.db p.D.Problem.queries in
  let ops =
    match
      Engine.Script.parse
        "solve Q4(John, TKDE, XML)\nsolve Q4(Tom, TKDE, XML)\ndelete T2(TODS, XML, 30)\n"
    with
    | Ok ops -> ops
    | Error e -> Alcotest.fail e
  in
  (match Engine.Script.replay eng ops with
  | Error e -> Alcotest.fail e
  | Ok rounds ->
    Alcotest.(check int) "three rounds" 3 (List.length rounds);
    List.iteri
      (fun i (r : Engine.Script.round) ->
        Alcotest.(check int) "numbered in order" (i + 1) r.Engine.Script.number)
      rounds;
    (match (List.nth rounds 0).Engine.Script.plan with
    | Some plan -> Alcotest.(check bool) "solved" true (plan.Engine.solutions <> [])
    | None -> Alcotest.fail "solve round must carry a plan"));
  (* a solve for a now-deleted answer fails with its round number *)
  (match
     Engine.Script.replay eng
       (match Engine.Script.parse "solve Q4(NoSuch, TKDE, XML)\n" with
       | Ok ops -> ops
       | Error e -> Alcotest.fail e)
   with
  | Error e -> Alcotest.(check bool) "round number in error" true
                 (Astring.String.is_prefix ~affix:"round 1" e)
  | Ok _ -> Alcotest.fail "expected replay error");
  Engine.close eng

(* a name outside the registry would leave every tier without a solver,
   so each round would fall to the unbudgeted greedy fallback: [create]
   rejects it, and an empty list, with a message naming the unknown
   algorithm and the registered ones; [Planner.solve] and
   [Portfolio.solutions_report] reject it through the same check *)
let test_engine_unknown_algorithm () =
  let p = fig1 () in
  let create algorithms =
    Engine.create ~domains:1 ~algorithms p.D.Problem.db p.D.Problem.queries
  in
  let known =
    List.map (fun (module S : D.Solver.S) -> S.name) (D.Solvers.registered ())
  in
  (match create [ "dp-tree"; "dp" ] with
  | exception Invalid_argument msg ->
    List.iter
      (fun name ->
        Alcotest.(check bool) ("the message names " ^ name) true
          (Astring.String.is_infix ~affix:name msg))
      ("\"dp\"" :: known)
  | eng ->
    Engine.close eng;
    Alcotest.fail "an unknown algorithm must be rejected");
  (match create [] with
  | exception Invalid_argument _ -> ()
  | eng ->
    Engine.close eng;
    Alcotest.fail "an empty algorithm list must be rejected");
  Engine.close (create known);
  (* the planner and the portfolio reject it too, with the same message *)
  let a = D.Arena.build (D.Provenance.build p) in
  List.iter
    (fun (tag, solve) ->
      match solve () with
      | exception Invalid_argument msg ->
        Alcotest.(check bool) (tag ^ ": the message names \"dp\"") true
          (Astring.String.is_infix ~affix:"unknown algorithm \"dp\"" msg)
      | () -> Alcotest.fail (tag ^ ": an unknown algorithm must be rejected"))
    [
      ("planner", fun () -> ignore (D.Planner.solve ~only:[ "dp" ] a));
      ("portfolio", fun () -> ignore (D.Portfolio.solutions_report ~only:[ "dp" ] a));
    ];
  (* an empty list stays legal in the portfolio: the planner's
     approximate rung passes [] under ~only:["brute"] *)
  ignore (D.Portfolio.solutions_report ~only:[] a);
  ignore (D.Planner.solve ~only:[ "brute" ] a)

let suite =
  [
    Alcotest.test_case "pool: map = List.map, reuse, shutdown" `Quick test_pool_map;
    Alcotest.test_case "pool: exception propagation" `Quick test_pool_exception;
    Alcotest.test_case "pool: nested map degrades" `Quick test_pool_nested;
    Alcotest.test_case "par: ?pool argument" `Quick test_par_map_pool_arg;
    Alcotest.test_case "delta request: validation" `Quick test_delta_request_validate;
    Alcotest.test_case "matview: typed problem" `Quick test_matview_typed_problem;
    Alcotest.test_case "solution: JSON round-trip" `Quick test_solution_json_roundtrip;
    prop_stream;
    prop_mixed_stream;
    prop_mixed_stream_domains;
    Alcotest.test_case "engine: mixed session, scale 40" `Quick test_engine_mixed_scale40;
    Alcotest.test_case "engine: Fig. 1 session + stats" `Quick test_engine_fig1;
    Alcotest.test_case "engine: domains 2 = domains 1" `Quick test_engine_domains_equal;
    Alcotest.test_case "engine: unknown algorithms are rejected" `Quick
      test_engine_unknown_algorithm;
    Alcotest.test_case "script: parse" `Quick test_script_parse;
    Alcotest.test_case "script: parse errors" `Quick test_script_parse_errors;
    Alcotest.test_case "script: replay" `Quick test_script_replay;
    Alcotest.test_case "report: floats read back bit-equal" `Quick
      test_report_float_roundtrip;
    Alcotest.test_case "report: shard and solution print one cost" `Quick
      test_report_shard_cost_text;
  ]
