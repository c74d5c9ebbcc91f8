(* The tombstone arena regime: generation-stamped lazy deletion must be
   observationally identical to a scratch rebuild — same solutions, same
   fingerprints, same partition labels, same recovery — with compaction
   an explicit, amortized event. The differential properties drive a
   session against scratch recomputation; the unit tests pin the
   compaction threshold, the crash window between a committed delta and
   its compaction, recovery from a tombstoned checkpoint and the
   single-component cache routing. *)

open Util
module R = Relational
module D = Deleprop
module B = Setcover.Bitset

let seeds = QCheck2.Gen.int_range 0 10_000

(* ---- Arena.compact: idempotence and scratch equivalence ---- *)

let check_compact_idempotent family seed =
  let prov = family seed in
  let a = D.Arena.build prov in
  (* a freshly built arena has no tombstones: compact is the physical
     identity, not a copy *)
  Alcotest.(check bool) "compact of compact arena is physically it" true
    (D.Arena.compact a == a);
  Alcotest.(check bool) "fresh arena not tombstoned" false (D.Arena.tombstoned a);
  let rng = rng (seed + 13) in
  let n = D.Arena.num_stuples a in
  if n > 1 then begin
    let k = 1 + Random.State.int rng 2 in
    let dd = ref R.Stuple.Set.empty in
    for _ = 1 to k do
      dd := R.Stuple.Set.add a.D.Arena.stuples.(Random.State.int rng n) !dd
    done;
    let prov' = D.Provenance.delete prov !dd in
    let a' = D.Arena.delete a ~dd:!dd prov' in
    (* delete tombstones: slots never move *)
    Alcotest.(check bool) "delete shares the physical arrays" true
      (a'.D.Arena.stuples == a.D.Arena.stuples);
    Alcotest.(check bool) "delete tombstones" true (D.Arena.tombstoned a');
    Alcotest.(check bool) "ratio positive" true (D.Arena.tombstone_ratio a' > 0.0);
    let c1 = D.Arena.compact a' in
    Alcotest.(check bool) "compacted form has no tombstones" false
      (D.Arena.tombstoned c1);
    Alcotest.(check bool) "compacted ratio is zero" true
      (Float.equal (D.Arena.tombstone_ratio c1) 0.0);
    (* idempotence: a second compact is the physical identity *)
    Alcotest.(check bool) "compact idempotent" true (D.Arena.compact c1 == c1);
    (* and the compacted form is bit-identical to a scratch build *)
    Test_engine.check_arena_equal
      (Printf.sprintf "seed %d: compact (delete) = scratch" seed)
      c1 (D.Arena.build prov')
  end;
  true

let prop_compact_forest =
  qcheck ~count:50 "arena: compact (delete) = scratch build (forest)" seeds
    (check_compact_idempotent Test_decompose.forest_prov)

let prop_compact_random =
  qcheck ~count:50 "arena: compact (delete) = scratch build (random)" seeds
    (check_compact_idempotent Test_decompose.random_prov)

(* ---- the whole-instance portfolio never needs a compacted copy ---- *)

(* Every solver skips dead slots, so [Portfolio.solutions_report] on a
   session's tombstoned index, re-targeted at a round's requests, must
   report exactly what it reports on that arena's compacted form: every
   ranked solution (algorithm, deleted set, bit-exact cost, certificate),
   the failures and the degraded flag. The index is tombstoned by random
   deletes and partly resurrected by re-inserting deleted tuples. *)
let check_portfolio_tombstoned family seed =
  let p = (family seed).D.Provenance.problem in
  let rng = rng (seed + 29) in
  let queries = p.D.Problem.queries in
  let eng = Engine.create ~domains:1 p.D.Problem.db queries in
  let deleted_pool = ref [] in
  let failures (r : D.Portfolio.report) =
    List.map
      (fun (f : D.Portfolio.failure) ->
        Format.asprintf "%a" D.Portfolio.pp_failure { f with elapsed_ms = 0.0 })
      r.D.Portfolio.failures
  in
  for step = 1 to 6 do
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
      | st :: rest when step mod 2 = 0 ->
        deleted_pool := rest;
        R.Stuple.Set.singleton st
      | _ -> R.Stuple.Set.empty
    in
    let applied = Engine.apply_delta eng (D.Delta.make ~deletes ~inserts ()) in
    deleted_pool :=
      R.Stuple.Set.elements
        (R.Stuple.Set.diff applied.D.Delta.deletes applied.D.Delta.inserts)
      @ !deleted_pool;
    let prov, arena = Engine.index eng in
    match Test_engine.random_requests rng prov with
    | [] -> ()
    | reqs ->
      let tag = Printf.sprintf "seed %d step %d" seed step in
      let a =
        D.Arena.with_deletions arena (D.Provenance.with_deletions prov reqs)
      in
      let live = D.Portfolio.solutions_report a in
      let compacted = D.Portfolio.solutions_report (D.Arena.compact a) in
      Test_engine.check_solutions_equal tag live.D.Portfolio.solutions
        compacted.D.Portfolio.solutions;
      Alcotest.(check (list string)) (tag ^ ": failures") (failures compacted)
        (failures live);
      Alcotest.(check bool) (tag ^ ": degraded") compacted.D.Portfolio.degraded
        live.D.Portfolio.degraded
  done;
  Engine.close eng;
  true

let prop_portfolio_tombstoned_forest =
  qcheck ~count:30 "tombstoned portfolio = compact (forest)" seeds
    (check_portfolio_tombstoned Test_decompose.forest_prov)

let prop_portfolio_tombstoned_pivot =
  qcheck ~count:30 "tombstoned portfolio = compact (pivot)" seeds
    (check_portfolio_tombstoned
       (Test_decompose.pivot_prov ?num_roots:None ?tuples_per_relation:None))

let prop_portfolio_tombstoned_random =
  qcheck ~count:30 "tombstoned portfolio = compact (random)" seeds
    (check_portfolio_tombstoned Test_decompose.random_prov)

(* ---- lockstep differential: the tombstoned session ≡ scratch ---- *)

(* One session consumes a mixed delete/insert/solve stream. After every
   commit its live index must agree with a scratch rebuild of
   [Engine.db] (provenance and arena built fresh) up to compaction:
   bit-identical arenas and partition labels once compacted, equal
   content fingerprints *without* compacting, and a tombstone ratio
   the threshold keeps at or below 0.5. Every solve must rank the
   solutions of the scratch arena re-stamped with the round's ΔV, solved
   by a cache-less [Planner.solve]. *)
let check_scratch_stream seed =
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
  let check_indexes tag =
    let _, arena = Engine.index eng in
    let prov_s, arena_s = Test_engine.scratch_index queries (Engine.db eng) in
    (* fingerprints are tombstone-invariant: equal without compacting *)
    Alcotest.(check bool) (tag ^ ": fingerprints agree") true
      (D.Fingerprint.equal (D.Fingerprint.arena arena)
         (D.Fingerprint.arena arena_s));
    Test_engine.check_arena_equal (tag ^ ": compact session = scratch")
      (D.Arena.compact arena) arena_s;
    Test_engine.check_partition_equal (tag ^ ": partition labels")
      (D.Component_index.partition
         (D.Component_index.compact (Engine.component_index eng) ~before:arena))
      (D.Arena.partition arena_s);
    Alcotest.(check bool) (tag ^ ": tombstone ratio <= 0.5") true
      ((Engine.stats eng).Engine.tombstone_ratio <= 0.5);
    List.iter
      (fun (q : Cq.Query.t) ->
        Alcotest.check Util.tuple_set (tag ^ ": view " ^ q.name)
          (Option.value ~default:R.Tuple.Set.empty
             (D.Smap.find_opt q.name prov_s.D.Provenance.views))
          (Engine.view eng q.name))
      queries
  in
  (* the scratch answer to [reqs]: the rebuilt arena, re-stamped *)
  let scratch_solutions reqs =
    let prov_s, arena_s = Test_engine.scratch_index queries (Engine.db eng) in
    let arena_s' =
      D.Arena.with_deletions arena_s (D.Provenance.with_deletions prov_s reqs)
    in
    (D.Planner.solve ~domains:1 arena_s').D.Planner.solutions
  in
  check_indexes "initial";
  for step = 1 to 10 do
    let tag = Printf.sprintf "scratch seed %d step %d" seed step in
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
    check_indexes tag;
    if step mod 3 = 0 then begin
      let prov, _ = Engine.index eng in
      match Test_engine.random_requests rng prov with
      | [] -> ()
      | reqs -> (
        let expected = scratch_solutions reqs in
        match Engine.request eng reqs with
        | Ok plan ->
          Test_engine.check_solutions_equal tag plan.Engine.solutions expected;
          (match Engine.apply eng plan with
          | Some s ->
            deleted_pool :=
              R.Stuple.Set.elements s.D.Solution.deleted @ !deleted_pool
          | None -> ());
          check_indexes (tag ^ " after solve")
        | Error e -> Alcotest.fail (tag ^ ": " ^ D.Delta_request.error_to_string e))
    end
  done;
  check_indexes "final";
  let s = Engine.stats eng in
  (* an explicit compact converges the session to the scratch form *)
  Engine.compact eng;
  let s' = Engine.stats eng in
  Alcotest.(check bool) "compactions monotone" true
    (s'.Engine.compactions >= s.Engine.compactions);
  Alcotest.(check bool) "ratio zero after compact" true
    (Float.equal s'.Engine.tombstone_ratio 0.0);
  Test_engine.check_arena_equal "post-compact index = scratch"
    (snd (Engine.index eng))
    (snd (Test_engine.scratch_index queries (Engine.db eng)));
  Engine.close eng;
  true

let prop_scratch_stream =
  qcheck ~count:10 "engine: session = scratch (planner)" seeds
    check_scratch_stream

(* ---- the request path: one-pass stamp and row-evaluated outcome ----

   A request stamps its ΔV on the session arena's bitsets alone
   ([Arena.with_requests]), and the planner evaluates its composite off
   the arena's rows ([Side_effect.eval_arena]). Both run in lockstep
   with the provenance path they replace: [Delta_request.validate],
   [Arena.with_deletions] of [Provenance.with_deletions], and
   [Side_effect.eval] on the re-targeted provenance. The session has
   non-dyadic weights and commits random deletes and re-inserts, so its
   arena carries tombstones, resurrected slots and [containing] rows
   that still list dead vids. [f] sees the live index after every
   commit, with the tuples deleted and not re-inserted so far. *)
let weighted_session family f seed =
  let prov = Test_exact.reweigh seed (family seed) in
  let p = prov.D.Provenance.problem in
  let rng = rng (seed + 43) in
  let eng =
    Engine.create ~domains:1 ~weights:p.D.Problem.weights p.D.Problem.db
      p.D.Problem.queries
  in
  let gone = ref [] in
  for step = 1 to 6 do
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
      match !gone with
      | st :: rest when step mod 3 = 0 ->
        gone := rest;
        R.Stuple.Set.singleton st
      | _ -> R.Stuple.Set.empty
    in
    let applied = Engine.apply_delta eng (D.Delta.make ~deletes ~inserts ()) in
    gone :=
      R.Stuple.Set.elements
        (R.Stuple.Set.diff applied.D.Delta.deletes applied.D.Delta.inserts)
      @ !gone;
    let prov, arena = Engine.index eng in
    f (Printf.sprintf "seed %d step %d" seed step) rng ~gone:!gone prov arena
  done;
  Engine.close eng;
  true

(* the view tuples of the arena's dead slots: no longer answers *)
let dead_vtuples (a : D.Arena.t) =
  List.filter_map
    (fun vid -> if B.mem a.D.Arena.dead_v vid then Some a.D.Arena.vtuples.(vid) else None)
    (List.init (D.Arena.num_vtuples a) Fun.id)

let check_stamp tag (prov : D.Provenance.t) (arena : D.Arena.t) reqs =
  let expected =
    match D.Delta_request.validate ~views:prov.D.Provenance.views reqs with
    | Error e -> Error e
    | Ok () ->
      Ok (D.Arena.with_deletions arena (D.Provenance.with_deletions prov reqs))
  in
  match (expected, D.Arena.with_requests arena reqs) with
  | Error e, Error e' ->
    Alcotest.(check string) (tag ^ ": the first error")
      (D.Delta_request.error_to_string e) (D.Delta_request.error_to_string e')
  | Ok x, Ok y ->
    Alcotest.(check bool) (tag ^ ": bad") true (B.equal x.D.Arena.bad y.D.Arena.bad);
    Alcotest.(check bool) (tag ^ ": preserved") true
      (B.equal x.D.Arena.preserved y.D.Arena.preserved);
    Alcotest.(check (array int)) (tag ^ ": bad_order") x.D.Arena.bad_order
      y.D.Arena.bad_order;
    Alcotest.(check bool) (tag ^ ": forest_case") x.D.Arena.forest_case
      y.D.Arena.forest_case;
    Alcotest.(check bool) (tag ^ ": the re-stamp builds no index") false
      (Lazy.is_val y.D.Arena.prov)
  | Error e, Ok _ ->
    Alcotest.fail (tag ^ ": stamped a request validate rejects: "
                   ^ D.Delta_request.error_to_string e)
  | Ok _, Error e ->
    Alcotest.fail (tag ^ ": rejected a valid request: "
                   ^ D.Delta_request.error_to_string e)

(* valid requests, and the same requests spoiled at a random place by
   a dead answer, a tuple no view holds, or a view no query defines *)
let stamp_round tag rng ~gone:_ prov arena =
  let reqs = Test_engine.random_requests rng prov in
  let insert_at x l =
    let k = Random.State.int rng (List.length l + 1) in
    List.filteri (fun i _ -> i < k) l @ (x :: List.filteri (fun i _ -> i >= k) l)
  in
  let spoil (vt : D.Vtuple.t) =
    match reqs with
    | r :: rest when Random.State.bool rng ->
      (* into an existing request's tuples *)
      { r with D.Delta_request.tuples = insert_at vt.D.Vtuple.tuple r.D.Delta_request.tuples }
      :: rest
    | _ -> insert_at (D.Delta_request.make ~view:vt.D.Vtuple.query [ vt.D.Vtuple.tuple ]) reqs
  in
  check_stamp (tag ^ " valid") prov arena reqs;
  (match dead_vtuples arena with
  | [] -> ()
  | dead ->
    let vt = List.nth dead (Random.State.int rng (List.length dead)) in
    check_stamp (tag ^ " dead answer") prov arena (spoil vt));
  (match prov.D.Provenance.problem.D.Problem.queries with
  | q :: _ ->
    check_stamp (tag ^ " no such answer") prov arena
      (spoil (D.Vtuple.make q.Cq.Query.name (R.Tuple.strs [ "~none" ])))
  | [] -> ());
  check_stamp (tag ^ " no such view") prov arena
    (spoil (D.Vtuple.make "NoSuchView" (R.Tuple.strs [ "x" ])))

let prop_stamp_forest =
  qcheck ~count:30 "request: one-pass stamp ≡ validate + with_deletions (forest)"
    seeds (weighted_session Test_decompose.forest_prov stamp_round)

let prop_stamp_random =
  qcheck ~count:30 "request: one-pass stamp ≡ validate + with_deletions (random)"
    seeds (weighted_session Test_decompose.random_prov stamp_round)

let bits x = Int64.bits_of_float x

let check_outcome_equal tag (e : D.Side_effect.outcome) (g : D.Side_effect.outcome) =
  Alcotest.check Util.stuple_set (tag ^ ": deleted") e.D.Side_effect.deleted
    g.D.Side_effect.deleted;
  Alcotest.check Util.vtuple_set (tag ^ ": side effect") e.D.Side_effect.side_effect
    g.D.Side_effect.side_effect;
  Alcotest.check Util.vtuple_set (tag ^ ": residual") e.D.Side_effect.residual_bad
    g.D.Side_effect.residual_bad;
  Alcotest.(check bool) (tag ^ ": feasible") e.D.Side_effect.feasible
    g.D.Side_effect.feasible;
  Alcotest.(check int64) (tag ^ ": cost to the bit") (bits e.D.Side_effect.cost)
    (bits g.D.Side_effect.cost);
  Alcotest.(check int64) (tag ^ ": balanced cost to the bit")
    (bits e.D.Side_effect.balanced_cost) (bits g.D.Side_effect.balanced_cost)

(* random live tuples, some deleted ones (dead slots, or gone for good
   after a compaction) and one no database holds *)
let eval_round tag rng ~gone prov arena =
  match Test_engine.random_requests rng prov with
  | [] -> ()
  | reqs ->
    let a =
      match D.Arena.with_requests arena reqs with
      | Ok a -> a
      | Error e -> Alcotest.fail (tag ^ ": " ^ D.Delta_request.error_to_string e)
    in
    let prov' = D.Provenance.with_deletions prov reqs in
    let c = D.Arena.consistent a in
    Alcotest.(check bool) (tag ^ ": consistent index built") true (Lazy.is_val c.D.Arena.prov);
    let consistent = D.Arena.provenance c in
    Alcotest.check Util.vtuple_set (tag ^ ": consistent ΔV") prov'.D.Provenance.bad
      consistent.D.Provenance.bad;
    Alcotest.check Util.vtuple_set (tag ^ ": consistent V \\ ΔV")
      prov'.D.Provenance.preserved consistent.D.Provenance.preserved;
    let pick l = List.filter (fun _ -> Random.State.int rng 3 = 0) l in
    let deleted =
      R.Stuple.Set.of_list
        ((st "NoSuchRelation" [ "x" ] :: pick gone)
        @ pick (R.Instance.stuples prov.D.Provenance.problem.D.Problem.db))
    in
    check_outcome_equal tag (D.Side_effect.eval prov' deleted)
      (D.Side_effect.eval_arena a deleted)

let prop_eval_forest =
  qcheck ~count:30 "request: arena outcome ≡ Side_effect.eval (forest)" seeds
    (weighted_session Test_decompose.forest_prov eval_round)

let prop_eval_random =
  qcheck ~count:30 "request: arena outcome ≡ Side_effect.eval (random)" seeds
    (weighted_session Test_decompose.random_prov eval_round)

(* ---- recovery: crash between a committed delta and its compaction ---- *)

let with_temp_journal f =
  let path = Filename.temp_file "deleprop_tomb" ".journal" in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists path then Sys.remove path;
      let tmp = path ^ ".tmp" in
      if Sys.file_exists tmp then Sys.remove tmp)
    (fun () -> f path)

let mixed_problem seed =
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
  p

(* the amortized trigger: single deletes tombstone uncompacted until a
   commit would leave more than half the slots dead — that commit
   compacts, and the compacted index is exactly a scratch build *)
let test_threshold_fires () =
  let p = mixed_problem 5 in
  let queries = p.D.Problem.queries in
  let eng = Engine.create ~domains:1 p.D.Problem.db queries in
  let rec go below =
    match R.Instance.stuples (Engine.db eng) with
    | [] -> Alcotest.fail "database emptied before the threshold fired"
    | st :: _ ->
      let dd = R.Stuple.Set.singleton st in
      let prov, arena = Engine.index eng in
      let ratio =
        D.Arena.tombstone_ratio
          (D.Arena.delete arena ~dd (D.Provenance.delete prov dd))
      in
      Engine.delete eng dd;
      let s = Engine.stats eng in
      if ratio <= 0.5 then begin
        Alcotest.(check int) "below the threshold: no compaction" 0
          s.Engine.compactions;
        Alcotest.(check bool) "below the threshold: tombstones stay" true
          (Float.equal s.Engine.tombstone_ratio ratio);
        go (below + 1)
      end
      else (below, s)
  in
  let below, s = go 0 in
  Alcotest.(check bool) "tombstones accumulated first" true (below > 0);
  Alcotest.(check bool) "the crossing commit compacted" true
    (s.Engine.compactions >= 1);
  Alcotest.(check bool) "ratio back within the threshold" true
    (s.Engine.tombstone_ratio <= 0.5);
  let prov_s, arena_s = Test_engine.scratch_index queries (Engine.db eng) in
  let prov, arena = Engine.index eng in
  Test_engine.check_prov_equal "compacted = scratch" prov prov_s;
  Test_engine.check_arena_equal "compacted = scratch" arena arena_s;
  Test_engine.check_partition_equal "compacted labels = scratch"
    (Engine.partition eng) (D.Arena.partition arena_s);
  Engine.close eng

(* The journal records the delta at commit time; compaction is a pure
   in-memory reorganization that is never journaled. A session killed
   with tombstones outstanding (four deletes stay well under the 0.5
   trigger) must recover to the same logical state. *)
let test_recovery_mid_tombstone () =
  with_temp_journal (fun path ->
      let p = mixed_problem 42 in
      let queries = p.D.Problem.queries in
      let mk ~recover =
        Engine.create ~domains:1 ~journal:path ~recover
          p.D.Problem.db queries
      in
      let eng1 = mk ~recover:false in
      let rng = rng 421 in
      for _ = 1 to 4 do
        match R.Instance.stuples (Engine.db eng1) with
        | [] -> ()
        | sts ->
          let st = List.nth sts (Random.State.int rng (List.length sts)) in
          Engine.delete eng1 (R.Stuple.Set.singleton st)
      done;
      let s1 = Engine.stats eng1 in
      Alcotest.(check bool) "crash point: tombstones outstanding" true
        (s1.Engine.tombstone_ratio > 0.0);
      Alcotest.(check int) "crash point: nothing compacted yet" 0
        s1.Engine.compactions;
      (* "crash": no close, no checkpoint — the journal holds every
         committed delete, the tombstones die with the process *)
      let eng2 = mk ~recover:true in
      Alcotest.(check bool) "recovered database" true
        (R.Instance.equal (Engine.db eng1) (Engine.db eng2));
      let _, a1 = Engine.index eng1 in
      let _, a2 = Engine.index eng2 in
      Test_engine.check_arena_equal "recovered index (up to compaction)"
        (D.Arena.compact a2) (D.Arena.compact a1);
      Alcotest.(check bool) "recovered fingerprint" true
        (D.Fingerprint.equal (D.Fingerprint.arena a2) (D.Fingerprint.arena a1));
      (* and both sessions keep answering identically *)
      let prov1, _ = Engine.index eng1 in
      (match Test_engine.random_requests (Util.rng 17) prov1 with
      | [] -> ()
      | reqs -> (
        match (Engine.request eng1 reqs, Engine.request eng2 reqs) with
        | Ok p1, Ok p2 ->
          Test_engine.check_solutions_equal "recovered ≡ survivor"
            p2.Engine.solutions p1.Engine.solutions
        | Error e, _ | _, Error e ->
          Alcotest.fail (D.Delta_request.error_to_string e)));
      Engine.close eng1;
      Engine.close eng2)

(* a checkpoint of a tombstoned index: recovery reaches the content
   through the checkpoint record's folded delta, whatever the live
   layout was *)
let test_checkpoint_tombstoned () =
  with_temp_journal (fun path ->
      let p = mixed_problem 7 in
      let queries = p.D.Problem.queries in
      let eng =
        Engine.create ~domains:1 ~journal:path p.D.Problem.db
          queries
      in
      (match R.Instance.stuples (Engine.db eng) with
      | st :: _ -> Engine.delete eng (R.Stuple.Set.singleton st)
      | [] -> Alcotest.fail "empty instance");
      Alcotest.(check bool) "tombstoned before checkpoint" true
        ((Engine.stats eng).Engine.tombstone_ratio > 0.0);
      Engine.checkpoint eng;
      (* the checkpointed journal recovers exactly *)
      let eng2 =
        Engine.create ~domains:1 ~journal:path ~recover:true
          p.D.Problem.db queries
      in
      Alcotest.(check bool) "checkpointed journal recovers" true
        (R.Instance.equal (Engine.db eng) (Engine.db eng2));
      Engine.close eng;
      Engine.close eng2)

(* ---- single-component rounds route through the shard cache ---- *)

(* three independent author/journal components (the shard-cache suite's
   instance): a ΔV touching exactly one component used to bypass the
   pipeline (n ≤ 1 solved whole, uncached); it must now classify,
   consult the cache, and splice on repeat *)
let test_single_component_cached () =
  let db = Test_shardcache.tri_db () in
  let queries = Test_shardcache.tri_queries () in
  let eng = Engine.create ~domains:1 db queries in
  let reqs =
    [ D.Delta_request.make ~view:"Q4" [ Test_shardcache.tri_view "A" "J1" ] ]
  in
  let p1 = Test_shardcache.request_exn "single round 1" eng reqs in
  Alcotest.(check bool) "single active component still decomposes" true
    p1.Engine.decomposed;
  Alcotest.(check int) "exactly one shard" 1 (List.length p1.Engine.shards);
  Alcotest.(check int) "cold cache: nothing spliced" 0 p1.Engine.shards_cached;
  let p2 = Test_shardcache.request_exn "single round 2" eng reqs in
  Alcotest.(check int) "identical repeat splices the single shard" 1
    p2.Engine.shards_cached;
  Test_engine.check_solutions_equal "spliced ≡ solved" p2.Engine.solutions
    p1.Engine.solutions;
  let s = Engine.stats eng in
  Alcotest.(check int) "stats: one lifetime shard cache hit" 1
    s.Engine.shard_cache_hits;
  Engine.close eng

let suite =
  [
    prop_compact_forest;
    prop_compact_random;
    prop_portfolio_tombstoned_forest;
    prop_portfolio_tombstoned_pivot;
    prop_portfolio_tombstoned_random;
    prop_scratch_stream;
    prop_stamp_forest;
    prop_stamp_random;
    prop_eval_forest;
    prop_eval_random;
    Alcotest.test_case "engine: compaction threshold fires" `Quick
      test_threshold_fires;
    Alcotest.test_case "engine: recovery mid-tombstone" `Quick
      test_recovery_mid_tombstone;
    Alcotest.test_case "engine: checkpoint mid-tombstone" `Quick
      test_checkpoint_tombstoned;
    Alcotest.test_case "planner: single component hits the shard cache" `Quick
      test_single_component_cached;
  ]
