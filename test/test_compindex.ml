(* The first-class live component index: per-component rosters lockstep
   with scratch recomputation across mixed delta streams (splits,
   merges, resurrections, compactions), O(active) enumeration
   bit-identical to an index built from scratch, and split-aware
   fragment reuse — a shattered component's untouched fragment inherits
   its parent's cached answer by restriction, bit-identical to a fresh
   solve. *)

open Util
module R = Relational
module D = Deleprop

let seeds = QCheck2.Gen.int_range 0 10_000
let request_exn = Test_shardcache.request_exn
let check_decisions_equal = Test_shardcache.check_decisions_equal
let check_solutions_equal = Test_engine.check_solutions_equal

(* ---- rosters ≡ scratch, labels ≡ scratch up to relabeling ----

   The live index keeps session-stable ids; an index built from scratch
   numbers canonically. So components compare through the canonical
   label of their least live sid ([Util.canonical]), and the canonical
   export itself must be bit-identical to a scratch partition. *)

let check_index_matches tag cindex (arena : D.Arena.t) =
  let p = D.Component_index.partition cindex in
  let ps = D.Arena.partition arena in
  Alcotest.(check int)
    (tag ^ ": num_components")
    ps.D.Arena.num_components p.D.Arena.num_components;
  Alcotest.(check int) (tag ^ ": live count") ps.D.Arena.num_components
    (D.Component_index.components cindex);
  Alcotest.(check bool) (tag ^ ": comp_of_sid ≡ scratch") true
    (p.D.Arena.comp_of_sid = ps.D.Arena.comp_of_sid);
  Alcotest.(check bool) (tag ^ ": comp_of_vid ≡ scratch") true
    (p.D.Arena.comp_of_vid = ps.D.Arena.comp_of_vid);
  let scratch = D.Component_index.build arena in
  (* every live component once, at its least live sid *)
  Array.iteri
    (fun sid label ->
      let c = D.Component_index.component_of_sid cindex sid in
      if label >= 0 && (D.Component_index.sids_of cindex c).(0) = sid then begin
        Alcotest.(check bool)
          (Printf.sprintf "%s: sids_of %d ≡ scratch %d" tag c label)
          true
          (D.Component_index.sids_of cindex c
          = D.Component_index.sids_of scratch label);
        Alcotest.(check bool)
          (Printf.sprintf "%s: vids_of %d ≡ scratch %d" tag c label)
          true
          (D.Component_index.vids_of cindex c
          = D.Component_index.vids_of scratch label)
      end)
    ps.D.Arena.comp_of_sid

(* live enumeration ≡ the same call on an index built from scratch,
   proto by proto, components through their canonical labels *)
let check_active_equal tag cindex (arena' : D.Arena.t) =
  let live = D.Component_index.active cindex arena' in
  let scratch =
    D.Component_index.active (D.Component_index.build arena') arena'
  in
  let canon = canonical cindex in
  Alcotest.(check int)
    (tag ^ ": active count")
    (Array.length scratch) (Array.length live);
  Array.iteri
    (fun i (s : D.Arena.proto_shard) ->
      let f = live.(i) in
      Alcotest.(check int) (tag ^ ": component") s.D.Arena.p_component
        (canon f.D.Arena.p_component);
      Alcotest.(check bool) (tag ^ ": p_sids") true
        (f.D.Arena.p_sids = s.D.Arena.p_sids);
      Alcotest.(check bool) (tag ^ ": p_vids") true
        (f.D.Arena.p_vids = s.D.Arena.p_vids))
    scratch

(* ---- the lockstep stream property ----

   Drive one mixed delete/insert/solve stream through a planner engine
   and require at every step: partitions and rosters bit-identical to
   scratch recomputation, active proto-shards bit-identical to an index
   built from scratch, and ranked solutions and shard decisions
   bit-identical to a cache-less [Planner.solve] over a scratch build
   of the engine's database. Deltas resurrect from a deleted pool, so
   tombstone, resurrect, merge and compaction branches all fire, and
   the engine's shard cache splices and seeds fragments along the way. *)
let check_lockstep_stream ?(scale = 6) seed =
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
  let eng = Engine.create ~domains:1 p.D.Problem.db queries in
  let deleted_pool = ref [] in
  for step = 1 to 10 do
    let tag = Printf.sprintf "compindex seed %d step %d" seed step in
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
    (* an explicit compaction now and then exercises the roster/memo
       remap outside the threshold trigger *)
    if step mod 4 = 0 then Engine.compact eng;
    let prov, arena = Engine.index eng in
    let cindex = Engine.component_index eng in
    check_index_matches tag cindex arena;
    match Test_engine.random_requests rng prov with
    | [] -> ()
    | reqs ->
      (* the ΔV re-stamp the planner sees *)
      let arena' =
        D.Arena.with_deletions arena (D.Provenance.with_deletions prov reqs)
      in
      check_active_equal tag cindex arena';
      let plan = request_exn tag eng reqs in
      let prov_s, arena_s = Test_engine.scratch_index queries (Engine.db eng) in
      let fresh =
        D.Planner.solve ~domains:1
          (D.Arena.with_deletions arena_s
             (D.Provenance.with_deletions prov_s reqs))
      in
      check_solutions_equal (tag ^ " solutions") plan.Engine.solutions
        fresh.D.Planner.solutions;
      check_decisions_equal (tag ^ " decisions") plan.Engine.shards
        fresh.D.Planner.shards;
      if step mod 3 = 0 then
        match Engine.apply eng plan with
        | Some s ->
          deleted_pool :=
            R.Stuple.Set.elements s.D.Solution.deleted @ !deleted_pool
        | None -> ()
  done;
  Engine.close eng;
  true

(* elevated in CI's compindex step via DELEPROP_COMPINDEX_COUNT *)
let lockstep_count =
  match Sys.getenv_opt "DELEPROP_COMPINDEX_COUNT" with
  | Some s -> ( try max 1 (int_of_string (String.trim s)) with Failure _ -> 15)
  | None -> 15

let prop_lockstep =
  qcheck ~count:lockstep_count "compindex: live index ≡ scratch over mixed streams"
    seeds (fun seed -> check_lockstep_stream seed)

(* ---- split-aware fragment reuse ----

   Two disjoint author→journal→topic→conference→city chains, each
   connected only through its T4 row (the committed data/authors_split.*
   files mirror this instance). Deleting a T4 tuple shatters the chain;
   the proposed Q4 answer's fragment is untouched and must splice the
   parent's cached answer — bit-identical to a cache-less solve. *)

let split_db () =
  R.Serial.instance_of_string
    {|rel T1(AuName*, Journal*)
T1(Ann, J1)
T1(Cal, J3)
T1(Bob, J2)
T1(Dan, J4)
rel T2(Journal*, Topic*, Papers)
T2(J1, XML, 30)
T2(J3, KDD, 5)
T2(J2, CUBE, 20)
T2(J4, SQL, 8)
rel T3(Topic*, Conf*)
T3(XML, ICDE)
T3(KDD, ICDE)
T3(CUBE, VLDB)
T3(SQL, VLDB)
rel T4(Conf*, City*)
T4(ICDE, Rome)
T4(VLDB, Oslo)|}

let split_queries () =
  Cq.Parser.queries_of_string
    {|Q4(X, Y, Z) :- T1(X, Y), T2(Y, Z, W)
Q6(Y, Z, C) :- T2(Y, Z, W), T3(Z, C)
Q7(Z, C, L) :- T3(Z, C), T4(C, L)|}

let q4 rows = [ D.Delta_request.make ~view:"Q4" (List.map R.Tuple.strs rows) ]
let del eng rel vs = Engine.delete eng (R.Stuple.Set.singleton (st rel vs))

let frag_reuses eng = (Engine.stats eng).Engine.fragment_reuses

let test_fragment_reuse_bitidentical () =
  let mk cache =
    Engine.create ~domains:1 ~shard_cache:cache (split_db ())
      (split_queries ())
  in
  let eng = mk 512 in
  let fresh = mk 0 in
  let round tag reqs =
    let p = request_exn tag eng reqs in
    let f = request_exn tag fresh reqs in
    check_solutions_equal (tag ^ " ≡ fresh") p.Engine.solutions
      f.Engine.solutions;
    check_decisions_equal (tag ^ " decisions") p.Engine.shards f.Engine.shards;
    p
  in
  (* warm the memos: one Exact_small answer per conference component *)
  ignore
    (round "warm"
       (q4 [ [ "Ann"; "J1"; "XML" ]; [ "Bob"; "J2"; "CUBE" ] ]));
  Alcotest.(check int) "two components" 2
    (Engine.partition eng).D.Arena.num_components;
  (* split the ICDE chain: Ann's fragment inherits the cached answer *)
  del eng "T4" [ "ICDE"; "Rome" ];
  del fresh "T4" [ "ICDE"; "Rome" ];
  let p = round "post-split" (q4 [ [ "Ann"; "J1"; "XML" ] ]) in
  Alcotest.(check int) "the seeded fragment splices" 1 p.Engine.shards_cached;
  Alcotest.(check int) "one fragment reuse" 1 (frag_reuses eng);
  (* the VLDB chain the same way; Ann's fragment splices again (the
     seeded entry stays valid), so reuses reach 3 *)
  del eng "T4" [ "VLDB"; "Oslo" ];
  del fresh "T4" [ "VLDB"; "Oslo" ];
  let p =
    round "both split"
      (q4 [ [ "Bob"; "J2"; "CUBE" ]; [ "Ann"; "J1"; "XML" ] ])
  in
  Alcotest.(check int) "both fragments splice" 2 p.Engine.shards_cached;
  Alcotest.(check int) "three fragment reuses" 3 (frag_reuses eng);
  Alcotest.(check int) "fresh engine never reuses" 0 (frag_reuses fresh);
  (* the fragment the split *did* touch stayed dirty: a fresh solve,
     still bit-identical *)
  let p = round "touched fragment" (q4 [ [ "Cal"; "J3"; "KDD" ] ]) in
  Alcotest.(check int) "touched fragment re-solves" 0 p.Engine.shards_cached;
  Engine.close eng;
  Engine.close fresh

(* the negative guard: a deletion that kills a view tuple whose witness
   meets the memoized answer's candidate set must NOT seed — the
   restriction would be unsound, so the fragment re-solves *)
let test_fragment_guard () =
  let mk cache =
    Engine.create ~domains:1 ~shard_cache:cache (split_db ())
      (split_queries ())
  in
  let eng = mk 512 in
  let fresh = mk 0 in
  ignore (request_exn "warm" eng (q4 [ [ "Ann"; "J1"; "XML" ] ]));
  (* T3(XML, ICDE) kills Q6(J1, XML, ICDE), whose witness contains the
     candidate T2(J1, XML, 30) — the candidate neighborhood is touched *)
  del eng "T3" [ "XML"; "ICDE" ];
  del fresh "T3" [ "XML"; "ICDE" ];
  let p = request_exn "guarded" eng (q4 [ [ "Ann"; "J1"; "XML" ] ]) in
  let f = request_exn "guarded" fresh (q4 [ [ "Ann"; "J1"; "XML" ] ]) in
  Alcotest.(check int) "no unsound splice" 0 p.Engine.shards_cached;
  Alcotest.(check int) "no fragment reuse" 0 (frag_reuses eng);
  check_solutions_equal "guarded ≡ fresh" p.Engine.solutions f.Engine.solutions;
  (* killing the memoized ΔV itself also refuses to seed *)
  ignore (request_exn "rewarm" eng (q4 [ [ "Bob"; "J2"; "CUBE" ] ]));
  Engine.delete eng
    (R.Stuple.Set.singleton
       (R.Stuple.make "T2"
          (R.Tuple.of_list
             [ R.Value.str "J2"; R.Value.str "CUBE"; R.Value.int 20 ])));
  Alcotest.(check int) "dead ΔV never seeds" 0 (frag_reuses eng);
  Engine.close eng;
  Engine.close fresh

(* ---- stable ids: a delta re-labels only what it reaches ----

   Deleting T1(Ann, J1) leaves T1(Bob, J2) the least live sid, so the
   VLDB chain's canonical label moves from 1 to 0 — yet its stable id,
   record, memo and dirty bit must not move, on the delete nor on the
   resurrecting re-insert. *)
let test_untouched_components_stay () =
  let eng = Engine.create ~domains:1 (split_db ()) (split_queries ()) in
  ignore (request_exn "warm" eng (q4 [ [ "Ann"; "J1"; "XML" ]; [ "Bob"; "J2"; "CUBE" ] ]));
  let bob = D.Arena.stuple_id (snd (Engine.index eng)) (st "T1" [ "Bob"; "J2" ]) in
  let ann = D.Arena.stuple_id (snd (Engine.index eng)) (st "T1" [ "Ann"; "J1" ]) in
  let ix0 = Engine.component_index eng in
  let vldb = D.Component_index.component_of_sid ix0 bob in
  let icde = D.Component_index.component_of_sid ix0 ann in
  Alcotest.(check int) "VLDB starts at canonical label 1" 1 (canonical ix0 vldb);
  Alcotest.(check bool) "VLDB memoized" true (D.Component_index.memo ix0 vldb <> None);
  let check_untouched tag =
    let ix = Engine.component_index eng in
    Alcotest.(check int) (tag ^ ": same id") vldb
      (D.Component_index.component_of_sid ix bob);
    Alcotest.(check bool) (tag ^ ": roster physically equal") true
      (D.Component_index.sids_of ix vldb == D.Component_index.sids_of ix0 vldb
      && D.Component_index.vids_of ix vldb == D.Component_index.vids_of ix0 vldb);
    Alcotest.(check bool) (tag ^ ": same memo") true
      (D.Component_index.memo ix vldb = D.Component_index.memo ix0 vldb);
    Alcotest.(check bool) (tag ^ ": still clean") false
      (D.Component_index.dirty ix vldb);
    ix
  in
  Engine.delete eng (R.Stuple.Set.singleton (st "T1" [ "Ann"; "J1" ]));
  let ix1 = check_untouched "delete" in
  Alcotest.(check int) "VLDB is now canonical label 0" 0 (canonical ix1 vldb);
  let icde1 =
    D.Component_index.component_of_sid ix1
      (D.Arena.stuple_id (snd (Engine.index eng)) (st "T1" [ "Cal"; "J3" ]))
  in
  Alcotest.(check bool) "the ICDE remnant has a fresh id" true
    (icde1 <> icde && icde1 <> vldb);
  Alcotest.(check bool) "the ICDE remnant is dirty" true
    (D.Component_index.dirty ix1 icde1);
  Engine.insert eng (st "T1" [ "Ann"; "J1" ]);
  let ix2 = check_untouched "re-insert" in
  Alcotest.(check int) "VLDB back at canonical label 1" 1 (canonical ix2 vldb);
  let icde2 = D.Component_index.component_of_sid ix2 ann in
  Alcotest.(check bool) "the re-merged ICDE chain has a fresh id" true
    (icde2 <> icde1 && icde2 <> icde);
  Alcotest.(check bool) "the re-merged ICDE chain is dirty" true
    (D.Component_index.dirty ix2 icde2);
  Engine.close eng

(* [index_retargets] counts requests served by re-targeting the live
   index; reading the index is not one *)
let test_accessors_not_retargets () =
  let eng = Engine.create ~domains:1 (split_db ()) (split_queries ()) in
  let retargets () = (Engine.stats eng).Engine.index_retargets in
  let n0 = retargets () in
  ignore (Engine.index eng);
  ignore (Engine.partition eng);
  ignore (Engine.component_index eng);
  Alcotest.(check int) "accessors leave the counter alone" n0 (retargets ());
  ignore (request_exn "one request" eng (q4 [ [ "Ann"; "J1"; "XML" ] ]));
  Alcotest.(check int) "one request adds exactly 1" (n0 + 1) (retargets ());
  Engine.close eng

(* seeding composes with durability: reuse counters live in the cache
   stats block, so a snapshotted session restores them *)
let test_reuse_counter_durable () =
  let c = D.Planner.create_cache ~capacity:8 () in
  let stats = D.Planner.cache_stats c in
  Alcotest.(check int) "fresh cache: zero reuses" 0
    stats.D.Planner.s_fragment_reuses;
  let c' = D.Planner.create_cache ~capacity:8 () in
  D.Planner.cache_restore
    ~stats:{ stats with D.Planner.s_fragment_reuses = 7 }
    c' [];
  Alcotest.(check int) "restored reuse counter" 7
    (D.Planner.cache_stats c').D.Planner.s_fragment_reuses

let suite =
  [
    prop_lockstep;
    Alcotest.test_case "split: fragment reuse ≡ fresh solve" `Quick
      test_fragment_reuse_bitidentical;
    Alcotest.test_case "split: candidate-touching deletes never seed" `Quick
      test_fragment_guard;
    Alcotest.test_case "split: reuse counter survives restore" `Quick
      test_reuse_counter_durable;
    Alcotest.test_case "stable ids: untouched components stay put" `Quick
      test_untouched_components_stay;
    Alcotest.test_case "stats: accessors are not retargets" `Quick
      test_accessors_not_retargets;
  ]
