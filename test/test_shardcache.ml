(* The shard solution cache: canonical fingerprints, the bounded LRU,
   and the differential property suite proving cached planner sessions
   solution-equivalent (same costs, certificates, shard decisions) to
   cache-less ones at every round — across mixed delta streams, under
   eviction pressure, and through crash recovery. *)

open Util
module R = Relational
module D = Deleprop

let seeds = QCheck2.Gen.int_range 0 10_000

(* ---- Setcover.Lru ---- *)

let test_lru_basics () =
  let l = Setcover.Lru.create ~capacity:2 in
  Alcotest.(check int) "capacity" 2 (Setcover.Lru.capacity l);
  Setcover.Lru.add l 1 "a";
  Setcover.Lru.add l 2 "b";
  Alcotest.(check int) "two bindings" 2 (Setcover.Lru.length l);
  (* touching 1 makes 2 the eviction victim *)
  Alcotest.(check (option string)) "find refreshes" (Some "a")
    (Setcover.Lru.find l 1);
  Setcover.Lru.add l 3 "c";
  Alcotest.(check (option string)) "lru evicted" None (Setcover.Lru.find l 2);
  Alcotest.(check (option string)) "recent survives" (Some "a")
    (Setcover.Lru.find l 1);
  Alcotest.(check (option string)) "new binding" (Some "c")
    (Setcover.Lru.find l 3);
  (* replacing refreshes, never grows *)
  Setcover.Lru.add l 1 "a2";
  Alcotest.(check (option string)) "replaced" (Some "a2") (Setcover.Lru.find l 1);
  Alcotest.(check int) "still two bindings" 2 (Setcover.Lru.length l);
  Setcover.Lru.remove l 1;
  Alcotest.(check bool) "removed" false (Setcover.Lru.mem l 1);
  Setcover.Lru.clear l;
  Alcotest.(check int) "cleared" 0 (Setcover.Lru.length l);
  Alcotest.check_raises "capacity 0 rejected"
    (Invalid_argument "Lru.create: capacity 0 < 1") (fun () ->
      ignore (Setcover.Lru.create ~capacity:0))

let test_lru_eviction_order () =
  let l = Setcover.Lru.create ~capacity:3 in
  List.iter (fun k -> Setcover.Lru.add l k k) [ 1; 2; 3 ];
  ignore (Setcover.Lru.find l 1);
  (* recency now 1 > 3 > 2: inserting two fresh keys evicts 2 then 3 *)
  Setcover.Lru.add l 4 4;
  Setcover.Lru.add l 5 5;
  Alcotest.(check (list int)) "survivors (mru first)" [ 5; 4; 1 ]
    (Setcover.Lru.fold (fun k _ acc -> acc @ [ k ]) l []);
  Alcotest.(check int) "bounded" 3 (Setcover.Lru.length l)

(* ---- Fingerprint ---- *)

let fig1 () = Workload.Author_journal.scenario_q4 ()

let test_fingerprint_stable () =
  let a1 = D.Arena.build (D.Provenance.build (fig1 ())) in
  let a2 = D.Arena.build (D.Provenance.build (fig1 ())) in
  Alcotest.(check bool) "same content, same fingerprint" true
    (D.Fingerprint.equal (D.Fingerprint.arena a1) (D.Fingerprint.arena a2));
  Alcotest.(check string) "hex round-trip" (D.Fingerprint.to_hex (D.Fingerprint.arena a1))
    (Format.asprintf "%a" D.Fingerprint.pp (D.Fingerprint.arena a2))

let test_fingerprint_sensitive () =
  let prov = D.Provenance.build (fig1 ()) in
  let a = D.Arena.build prov in
  let fp = D.Fingerprint.arena a in
  (* a different ΔV re-stamp must hash differently *)
  let reqs =
    [ D.Delta_request.make ~view:"Q4" [ R.Tuple.strs [ "Tom"; "TKDE"; "XML" ] ] ]
  in
  let a' = D.Arena.with_deletions a (D.Provenance.with_deletions prov reqs) in
  Alcotest.(check bool) "ΔV changes the fingerprint" false
    (D.Fingerprint.equal fp (D.Fingerprint.arena a'));
  (* so must deleting a source tuple *)
  let dd = R.Stuple.Set.singleton (R.Stuple.make "T1" (R.Tuple.strs [ "Tom"; "TKDE" ])) in
  let prov_d = D.Provenance.delete prov dd in
  let a_d = D.Arena.delete a ~dd prov_d in
  Alcotest.(check bool) "content changes the fingerprint" false
    (D.Fingerprint.equal fp (D.Fingerprint.arena a_d))

(* three independent author/journal components: T1(x, Jk) ⋈ T2(Jk, X, 1) *)
let tri_schema () =
  R.Schema.Db.of_list
    [
      R.Schema.make ~name:"T1" ~attrs:[ "AuName"; "Journal" ] ~key:[ 0; 1 ];
      R.Schema.make ~name:"T2" ~attrs:[ "Journal"; "Topic"; "Papers" ] ~key:[ 0; 1 ];
    ]

let tri_db () =
  R.Instance.of_alist (tri_schema ())
    [
      ( "T1",
        [
          R.Tuple.strs [ "A"; "J1" ];
          R.Tuple.strs [ "B"; "J2" ];
          R.Tuple.strs [ "C"; "J3" ];
        ] );
      ( "T2",
        [
          R.Tuple.of_list [ R.Value.str "J1"; R.Value.str "X"; R.Value.int 1 ];
          R.Tuple.of_list [ R.Value.str "J2"; R.Value.str "X"; R.Value.int 1 ];
          R.Tuple.of_list [ R.Value.str "J3"; R.Value.str "X"; R.Value.int 1 ];
        ] );
    ]

let tri_queries () = [ Cq.Parser.query_of_string "Q4(X, Y, Z) :- T1(X, Y), T2(Y, Z, W)" ]

let tri_view au j = R.Tuple.strs [ au; j; "X" ]

(* deleting T1(A, J1) compacts every id and renumbers every component —
   the untouched components' shard fingerprints must not move *)
let test_fingerprint_renumbering_invariant () =
  let shard_fps db deletions =
    let p = D.Problem.make ~db ~queries:(tri_queries ()) ~deletions () in
    let a = D.Arena.build (D.Provenance.build p) in
    Array.to_list
      (Array.map (fun (sh : D.Arena.shard) -> D.Fingerprint.arena sh.D.Arena.arena)
         (shatter a))
  in
  let before =
    shard_fps (tri_db ())
      [ ("Q4", [ tri_view "A" "J1"; tri_view "B" "J2"; tri_view "C" "J3" ]) ]
  in
  let after =
    shard_fps
      (R.Instance.remove (tri_db ()) (R.Stuple.make "T1" (R.Tuple.strs [ "A"; "J1" ])))
      [ ("Q4", [ tri_view "B" "J2"; tri_view "C" "J3" ]) ]
  in
  Alcotest.(check int) "three shards before" 3 (List.length before);
  Alcotest.(check int) "two shards after" 2 (List.length after);
  (* components renumber (J2: 1→0, J3: 2→1) but their content is
     untouched, so the fingerprints are exactly the old ones *)
  Alcotest.(check bool) "J2 shard fingerprint survives the renumbering" true
    (D.Fingerprint.equal (List.nth before 1) (List.nth after 0));
  Alcotest.(check bool) "J3 shard fingerprint survives the renumbering" true
    (D.Fingerprint.equal (List.nth before 2) (List.nth after 1))

(* the parent-side shard hash must agree with hashing the built shard
   arena — this equality is what lets the planner consult the cache
   without materializing clean components *)
let check_proto_fingerprint seed =
  let { Workload.Forest_family.problem = p; _ } =
    Workload.Forest_family.generate ~rng:(rng seed)
      {
        Workload.Forest_family.default with
        num_relations = 4;
        tuples_per_relation = 8;
        num_queries = 3;
        deletion_fraction = 0.3;
      }
  in
  let a = D.Arena.build (D.Provenance.build p) in
  Array.iter
    (fun (ps : D.Arena.proto_shard) ->
      let sh = D.Arena.materialize a ps in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d component %d: proto hash = built hash" seed
           ps.D.Arena.p_component)
        true
        (D.Fingerprint.equal (D.Fingerprint.shard a ps)
           (D.Fingerprint.arena sh.D.Arena.arena)))
    (D.Component_index.active (D.Component_index.build a) a);
  true

let prop_proto_fingerprint =
  qcheck ~count:50 "fingerprint: proto shard = materialized shard" seeds
    check_proto_fingerprint

(* ---- shard decisions: equality up to the [cached] flag ----

   Component ids compare exactly, so engine decisions must carry
   canonical labels — [request_exn] below translates them — to compare
   across sessions and against a standalone [Planner.solve], which
   numbers canonically. *)

let check_decisions_equal tag (es : D.Planner.shard_decision list)
    (ss : D.Planner.shard_decision list) =
  Alcotest.(check int) (tag ^ ": shard count") (List.length ss) (List.length es);
  List.iter2
    (fun (e : D.Planner.shard_decision) (s : D.Planner.shard_decision) ->
      Alcotest.(check int) (tag ^ ": component") s.D.Planner.component
        e.D.Planner.component;
      Alcotest.(check int) (tag ^ ": stuples") s.D.Planner.stuples e.D.Planner.stuples;
      Alcotest.(check int) (tag ^ ": vtuples") s.D.Planner.vtuples e.D.Planner.vtuples;
      Alcotest.(check int) (tag ^ ": bad") s.D.Planner.bad e.D.Planner.bad;
      Alcotest.(check bool) (tag ^ ": classification") true
        (e.D.Planner.classification = s.D.Planner.classification);
      Alcotest.(check string) (tag ^ ": winner") s.D.Planner.winner e.D.Planner.winner;
      Alcotest.(check bool) (tag ^ ": cost bit-identical") true
        (Float.equal e.D.Planner.cost s.D.Planner.cost);
      Alcotest.(check bool) (tag ^ ": exact") s.D.Planner.exact e.D.Planner.exact;
      Alcotest.(check bool) (tag ^ ": degraded") s.D.Planner.degraded
        e.D.Planner.degraded)
    es ss

(* [Engine.request], failing on a rejected request; the plan's shard
   components come back as canonical labels ([Util.canonical_plan]) *)
let request_exn tag eng reqs =
  match Engine.request eng reqs with
  | Ok plan -> canonical_plan eng plan
  | Error e -> Alcotest.fail (tag ^ ": " ^ D.Delta_request.error_to_string e)

(* ---- predicted dirty sets on the three-component instance ---- *)

let test_dirty_set_prediction () =
  let eng = Engine.create ~domains:1 (tri_db ()) (tri_queries ()) in
  let req aus = [ D.Delta_request.make ~view:"Q4" (List.map (fun (a, j) -> tri_view a j) aus) ] in
  let all = req [ ("A", "J1"); ("B", "J2"); ("C", "J3") ] in
  (* cold session: everything resolves *)
  let p1 = request_exn "round 1" eng all in
  Alcotest.(check bool) "decomposed" true p1.Engine.decomposed;
  Alcotest.(check int) "3 shards" 3 (List.length p1.Engine.shards);
  Alcotest.(check int) "cold round: nothing cached" 0 p1.Engine.shards_cached;
  (* identical repeat: everything splices *)
  let p2 = request_exn "round 2" eng all in
  Alcotest.(check int) "repeat: everything cached" 3 p2.Engine.shards_cached;
  Test_engine.check_solutions_equal "repeat ≡ cold" p2.Engine.solutions
    p1.Engine.solutions;
  check_decisions_equal "repeat decisions" p2.Engine.shards p1.Engine.shards;
  (* a delta confined to J1's component: J2/J3 stay clean even though
     deleting T1(A, J1) renumbers both of them *)
  let dd = R.Stuple.Set.singleton (R.Stuple.make "T1" (R.Tuple.strs [ "A"; "J1" ])) in
  ignore (Engine.apply_delta eng (D.Delta.of_deletes dd));
  let p3 = request_exn "round 3" eng (req [ ("B", "J2"); ("C", "J3") ]) in
  Alcotest.(check int) "2 shards" 2 (List.length p3.Engine.shards);
  Alcotest.(check int) "both clean components splice" 2 p3.Engine.shards_cached;
  (* an insert into J2's component dirties exactly it *)
  Engine.insert eng (R.Stuple.make "T1" (R.Tuple.strs [ "D"; "J2" ]));
  let p4 = request_exn "round 4" eng (req [ ("B", "J2"); ("C", "J3") ]) in
  Alcotest.(check int) "only the untouched component splices" 1
    p4.Engine.shards_cached;
  let j2 =
    List.find (fun (d : D.Planner.shard_decision) -> d.D.Planner.stuples = 3)
      p4.Engine.shards
  in
  Alcotest.(check bool) "the re-solved shard is the inserted one" false
    j2.D.Planner.cached;
  let s = Engine.stats eng in
  Alcotest.(check int) "stats: cached total" (3 + 2 + 1) s.Engine.shards_cached;
  Alcotest.(check int) "stats: resolved total" (3 + 0 + 0 + 1) s.Engine.shards_resolved;
  Alcotest.(check int) "cached + resolved = solved"
    s.Engine.shards_solved
    (s.Engine.shards_cached + s.Engine.shards_resolved);
  Engine.close eng

(* ---- differential: cached session ≡ cache-less session, every round ---- *)

(* Drive one mixed delete/insert/solve stream through two planner
   engines in lockstep — [eng_c] with the shard cache, [eng_f] with it
   disabled — and require bit-identical ranked solutions and shard
   decisions at every request, including an immediate identical repeat
   (which must splice every non-degraded shard on [eng_c]). *)
let check_cached_stream ?exact_threshold ?(capacity = 512) ?(scale = 6) seed =
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
  let mk shard_cache =
    Engine.create ?exact_threshold ~domains:1 ~shard_cache
      p.D.Problem.db queries
  in
  let eng_c = mk capacity in
  let eng_f = mk 0 in
  let deleted_pool = ref [] in
  for step = 1 to 10 do
    let tag = Printf.sprintf "cached seed %d step %d" seed step in
    let deletes =
      match R.Instance.stuples (Engine.db eng_c) with
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
    let delta = D.Delta.make ~deletes ~inserts () in
    let a_c = Engine.apply_delta eng_c delta in
    let a_f = Engine.apply_delta eng_f delta in
    Alcotest.check Util.stuple_set (tag ^ ": same deletes applied")
      a_f.D.Delta.deletes a_c.D.Delta.deletes;
    deleted_pool :=
      R.Stuple.Set.elements
        (R.Stuple.Set.diff a_c.D.Delta.deletes a_c.D.Delta.inserts)
      @ !deleted_pool;
    let prov_e, _ = Engine.index eng_c in
    match Test_engine.random_requests rng prov_e with
    | [] -> ()
    | reqs ->
      let p_c = request_exn tag eng_c reqs in
      let p_f = request_exn tag eng_f reqs in
      Alcotest.(check int) (tag ^ ": cache-less engine never splices") 0
        p_f.Engine.shards_cached;
      Test_engine.check_solutions_equal (tag ^ " post-delta") p_c.Engine.solutions
        p_f.Engine.solutions;
      check_decisions_equal (tag ^ " post-delta") p_c.Engine.shards
        p_f.Engine.shards;
      (* identical repeat: nothing moved, so every cacheable shard must
         splice — and the report must still be bit-identical *)
      let p_c' = request_exn tag eng_c reqs in
      let p_f' = request_exn tag eng_f reqs in
      Test_engine.check_solutions_equal (tag ^ " repeat") p_c'.Engine.solutions
        p_f'.Engine.solutions;
      check_decisions_equal (tag ^ " repeat") p_c'.Engine.shards p_f'.Engine.shards;
      if
        p_c'.Engine.decomposed
        && capacity >= List.length p_c'.Engine.shards
        && List.for_all
             (fun (d : D.Planner.shard_decision) -> not d.D.Planner.degraded)
             p_c'.Engine.shards
        && p_c'.Engine.failures = []
      then
        Alcotest.(check int)
          (tag ^ ": identical repeat splices every shard")
          (List.length p_c'.Engine.shards)
          p_c'.Engine.shards_cached;
      if step mod 3 = 0 then begin
        match (Engine.apply eng_c p_c, Engine.apply eng_f p_f) with
        | Some s_c, Some s_f ->
          Alcotest.check Util.stuple_set (tag ^ ": same solution applied")
            s_f.D.Solution.deleted s_c.D.Solution.deleted;
          deleted_pool :=
            R.Stuple.Set.elements s_c.D.Solution.deleted @ !deleted_pool
        | None, None -> ()
        | _ -> Alcotest.fail (tag ^ ": apply diverged")
      end
  done;
  Engine.close eng_c;
  Engine.close eng_f;
  true

let prop_cached_stream =
  qcheck ~count:10 "shardcache: cached session ≡ fresh (exact tiers)" seeds
    (fun seed -> check_cached_stream seed)

(* exact_threshold 0 pushes every shard to the approximate tier, so its
   entries are what the stream splices; the whole instance's ‖V‖ drifts
   with every committed delta, and no entry may depend on it *)
let prop_cached_stream_approx =
  qcheck ~count:10 "shardcache: cached session ≡ fresh (approx tier)" seeds
    (fun seed -> check_cached_stream ~exact_threshold:0 seed)

(* a capacity-1 cache thrashes constantly; equivalence must not care *)
let prop_cached_stream_tiny =
  qcheck ~count:10 "shardcache: cached session ≡ fresh (capacity 1)" seeds
    (fun seed -> check_cached_stream ~capacity:1 seed)

(* ---- clean-shard fingerprints from the component memo ----

   A clean component whose memo records exactly the round's ΔV splices
   under the memo's fingerprint instead of rehashing. One journaled,
   snapshotted session runs a mixed stream: commits that split and
   merge components, explicit compactions, recoveries, and three
   proposals between commits, so clean components meet other ΔVs of
   their memo's size. Before each proposal every clean active memo must
   name [Fingerprint.shard] of its component under the memo's ΔV; after
   it every spliced decision must carry [Fingerprint.shard] of its
   component under the round's ΔV. *)
let check_memo_fingerprints seed =
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
  let db = p.D.Problem.db and queries = p.D.Problem.queries in
  let journal = Filename.temp_file "memo" ".journal" in
  let snapshot = journal ^ ".snap" in
  let open_session ~recover =
    Engine.create ~domains:1 ~journal ~snapshot ~snapshot_every:4 ~recover db queries
  in
  let eng = ref (open_session ~recover:false) in
  let propose tag reqs =
    let _, arena = Engine.index !eng in
    let cindex = Engine.component_index !eng in
    let a' =
      match D.Arena.with_requests arena reqs with
      | Ok a -> a
      | Error e -> Alcotest.fail (tag ^ ": " ^ D.Delta_request.error_to_string e)
    in
    let protos = D.Component_index.active cindex a' in
    Array.iter
      (fun (ps : D.Arena.proto_shard) ->
        let c = ps.D.Arena.p_component in
        match D.Component_index.memo cindex c with
        | Some (fp, mbad) when not (D.Component_index.dirty cindex c) ->
          let bad =
            Setcover.Bitset.of_list ~len:(D.Arena.num_vtuples arena) (Array.to_list mbad)
          in
          Alcotest.(check string) (tag ^ ": clean memo ≡ Fingerprint.shard")
            (D.Fingerprint.to_hex (D.Fingerprint.shard ~bad arena ps))
            (D.Fingerprint.to_hex fp)
        | _ -> ())
      protos;
    match Engine.request !eng reqs with
    | Error e -> Alcotest.fail (tag ^ ": " ^ D.Delta_request.error_to_string e)
    | Ok plan ->
      List.iter
        (fun (d : D.Planner.shard_decision) ->
          if d.D.Planner.cached then
            match
              Array.find_opt
                (fun (ps : D.Arena.proto_shard) ->
                  ps.D.Arena.p_component = d.D.Planner.component)
                protos
            with
            | None -> Alcotest.fail (tag ^ ": a spliced shard is not active")
            | Some ps ->
              Alcotest.(check (option string))
                (tag ^ ": spliced fingerprint ≡ Fingerprint.shard")
                (Some (D.Fingerprint.to_hex (D.Fingerprint.shard a' ps)))
                (Option.map D.Fingerprint.to_hex d.D.Planner.fingerprint))
        plan.Engine.shards;
      plan
  in
  let pool = ref [] in
  Fun.protect
    ~finally:(fun () ->
      Engine.close !eng;
      Engine.Journal.remove journal;
      Engine.Snapshot.remove snapshot)
    (fun () ->
      for step = 1 to 8 do
        let tag = Printf.sprintf "memo seed %d step %d" seed step in
        let deletes =
          match R.Instance.stuples (Engine.db !eng) with
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
        let applied = Engine.apply_delta !eng (D.Delta.make ~deletes ~inserts ()) in
        pool :=
          R.Stuple.Set.elements
            (R.Stuple.Set.diff applied.D.Delta.deletes applied.D.Delta.inserts)
          @ !pool;
        if step mod 3 = 0 then Engine.compact !eng;
        if step mod 4 = 0 then begin
          Engine.close !eng;
          eng := open_session ~recover:true
        end;
        for k = 1 to 3 do
          let prov, _ = Engine.index !eng in
          match Test_engine.random_requests rng prov with
          | [] -> ()
          | reqs ->
            let plan = propose (Printf.sprintf "%s proposal %d" tag k) reqs in
            if k = 3 && step mod 3 = 1 then
              match Engine.apply !eng plan with
              | Some s -> pool := R.Stuple.Set.elements s.D.Solution.deleted @ !pool
              | None -> ()
        done
      done;
      true)

let prop_memo_fingerprints =
  qcheck ~count:20 "shardcache: memo fingerprints ≡ Fingerprint.shard over mixed streams"
    seeds check_memo_fingerprints

(* ---- crash recovery re-warms to an equivalent state ---- *)

let test_recover_rewarm () =
  let path = Filename.temp_file "shardcache" ".journal" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let db = tri_db () and queries = tri_queries () in
      let req aus =
        [ D.Delta_request.make ~view:"Q4" (List.map (fun (a, j) -> tri_view a j) aus) ]
      in
      let eng1 = Engine.create ~domains:1 ~journal:path db queries in
      ignore (request_exn "warm 1" eng1 (req [ ("A", "J1"); ("B", "J2"); ("C", "J3") ]));
      Engine.delete eng1
        (R.Stuple.Set.singleton (R.Stuple.make "T1" (R.Tuple.strs [ "A"; "J1" ])));
      let reqs = req [ ("B", "J2"); ("C", "J3") ] in
      ignore (request_exn "warm 2" eng1 reqs);
      (* "crash": the journal has everything committed; recovery replays
         it on the original baseline database *)
      Engine.close eng1;
      let eng2 =
        Engine.create ~domains:1 ~journal:path ~recover:true db queries
      in
      Alcotest.(check bool) "recovered database" true
        (R.Instance.equal (Engine.db eng1) (Engine.db eng2));
      let p1 = request_exn "survivor" eng1 reqs in
      let p2 = request_exn "recovered" eng2 reqs in
      (* the survivor splices from its warm cache; the recovered session
         starts cold and dirty — answers must be identical anyway *)
      Alcotest.(check int) "recovered session starts cold" 0 p2.Engine.shards_cached;
      Test_engine.check_solutions_equal "recovered ≡ survivor" p2.Engine.solutions
        p1.Engine.solutions;
      check_decisions_equal "recovered decisions" p2.Engine.shards p1.Engine.shards;
      (* and it re-warms: the identical repeat splices everything *)
      let p2' = request_exn "re-warmed" eng2 reqs in
      Alcotest.(check int) "re-warmed repeat splices every shard"
        (List.length p2'.Engine.shards) p2'.Engine.shards_cached;
      Test_engine.check_solutions_equal "re-warmed ≡ cold" p2'.Engine.solutions
        p2.Engine.solutions;
      Engine.close eng2)

let suite =
  [
    Alcotest.test_case "lru: basics" `Quick test_lru_basics;
    Alcotest.test_case "lru: eviction order" `Quick test_lru_eviction_order;
    Alcotest.test_case "fingerprint: stable across rebuilds" `Quick
      test_fingerprint_stable;
    Alcotest.test_case "fingerprint: content/ΔV sensitive" `Quick
      test_fingerprint_sensitive;
    Alcotest.test_case "fingerprint: invariant under renumbering" `Quick
      test_fingerprint_renumbering_invariant;
    prop_proto_fingerprint;
    Alcotest.test_case "engine: dirty sets predict cache hits" `Quick
      test_dirty_set_prediction;
    prop_cached_stream;
    prop_cached_stream_approx;
    prop_cached_stream_tiny;
    prop_memo_fingerprints;
    Alcotest.test_case "engine: recovery re-warms equivalently" `Quick
      test_recover_rewarm;
  ]
