(* The arena as the session's only live index. A session compiles its
   arena straight from the join and patches it on every commit, with no
   Provenance map behind it: the lockstep property holds the patched
   arena, its content digest and the Provenance built on demand from its
   rows to scratch builds of the live instance after every commit; the
   arena-level test drives the prov-free cores through a session of
   commits, splits, proposals and compactions and checks that none of
   them builds the whole-instance index; the insert tests pin which
   inserts are rejected as ambiguous; and three fingerprints are pinned
   to the values the set-based code computed. *)

open Util
module R = Relational
module D = Deleprop
module Digest_ref = Reference.Digest_reference

let seeds = QCheck2.Gen.int_range 0 100_000

(* ---- lockstep: the patched arena against scratch builds ---- *)

(* a tuple the database does not hold: a live one with one value
   replaced by another tuple's value in that column or by a fresh one;
   [None] when that clashes with a key *)
let new_tuple rng db =
  match R.Instance.stuples db with
  | [] -> None
  | sts ->
    let pick l = List.nth l (Random.State.int rng (List.length l)) in
    let st = pick sts in
    let donor = pick (List.filter (fun (s : R.Stuple.t) -> String.equal s.R.Stuple.rel st.R.Stuple.rel) sts) in
    let i = Random.State.int rng (R.Tuple.arity st.R.Stuple.tuple) in
    let v =
      match R.Tuple.get st.R.Stuple.tuple i with
      | _ when Random.State.bool rng -> R.Tuple.get donor.R.Stuple.tuple i
      | R.Value.Int k -> R.Value.Int (k + 1000 + Random.State.int rng 1000)
      | R.Value.Str s -> R.Value.Str (s ^ "'")
    in
    let st' =
      R.Stuple.make st.R.Stuple.rel
        (R.Tuple.init (R.Tuple.arity st.R.Stuple.tuple) (fun j ->
             if j = i then v else R.Tuple.get st.R.Stuple.tuple j))
    in
    if R.Instance.mem db st' then None
    else match R.Instance.add_stuple db st' with
      | _ -> Some st'
      | exception R.Relation.Key_violation _ -> None

let check_live tag (p : D.Problem.t) eng ~digest =
  let prov, arena = Engine.index eng in
  let live =
    D.Problem.make ~db:(Engine.db eng) ~queries:p.D.Problem.queries ~deletions:[]
      ~weights:p.D.Problem.weights ()
  in
  Test_engine.check_arena_equal (tag ^ ": compact = of_problem") (D.Arena.compact arena)
    (D.Arena.of_problem live);
  let scratch = D.Provenance.build live in
  Test_engine.check_prov_equal (tag ^ ": on-demand index = build") prov scratch;
  let expected = Digest_ref.digest scratch in
  Alcotest.(check string) (tag ^ ": digest = set-based digest")
    (D.Fingerprint.to_hex expected)
    (D.Fingerprint.to_hex (D.Fingerprint.digest arena));
  Alcotest.(check string) (tag ^ ": maintained digest") (D.Fingerprint.to_hex expected)
    (D.Fingerprint.to_hex digest);
  arena

(* a random stream of deletes, re-inserts, new tuples and proposals; a
   delta whose inserts clash with a key leaves the session as it was *)
let check_lockstep seed =
  let p = Test_bulk_build.family_problem (2 * seed) in
  let rng = rng (seed + 71) in
  let eng = Engine.create ~domains:1 ~weights:p.D.Problem.weights p.D.Problem.db p.D.Problem.queries in
  let gone = ref [] in
  let arena = ref (snd (Engine.index eng)) in
  let digest = ref (D.Fingerprint.digest !arena) in
  for step = 1 to 10 do
    let tag = Printf.sprintf "seed %d step %d" seed step in
    let db = Engine.db eng in
    let pick l = List.nth l (Random.State.int rng (List.length l)) in
    let deletes =
      match R.Instance.stuples db with
      | sts when sts <> [] && Random.State.int rng 3 > 0 ->
        R.Stuple.Set.of_list (List.init (1 + Random.State.int rng 2) (fun _ -> pick sts))
      | _ -> R.Stuple.Set.empty
    in
    let inserts =
      List.filter_map Fun.id
        [
          (match !gone with [] -> None | l -> if Random.State.bool rng then Some (pick l) else None);
          (if Random.State.bool rng then new_tuple rng db else None);
        ]
      |> R.Stuple.Set.of_list
    in
    (match Engine.apply_delta eng (D.Delta.make ~deletes ~inserts ()) with
    | applied ->
      let before = !arena in
      let after = snd (Engine.index eng) in
      digest :=
        D.Fingerprint.digest_delta !digest ~before ~dd:applied.D.Delta.deletes ~after
          ~ins:applied.D.Delta.inserts;
      gone :=
        R.Stuple.Set.elements (R.Stuple.Set.diff applied.D.Delta.deletes applied.D.Delta.inserts)
        @ List.filter (fun st -> not (R.Stuple.Set.mem st applied.D.Delta.inserts)) !gone
    | exception R.Relation.Key_violation _ ->
      Alcotest.(check bool) (tag ^ ": a rejected delta changes nothing") true
        (R.Instance.equal db (Engine.db eng)));
    arena := check_live tag p eng ~digest:!digest;
    match Test_engine.random_requests rng (fst (Engine.index eng)) with
    | reqs when reqs <> [] && Random.State.bool rng -> (
      match Engine.request eng reqs with
      | Ok _ -> ()
      | Error e -> Alcotest.fail (tag ^ ": " ^ D.Delta_request.error_to_string e))
    | _ -> ()
  done;
  Engine.close eng;
  true

let prop_lockstep =
  qcheck ~count:60
    "live arena ≡ scratch build, digest ≡ set-based digest (four families)" seeds
    check_lockstep

(* ---- no whole-instance index on a session's path ---- *)

(* A pivot instance, many components. The arena goes through what an
   engine session does to it — commits that split components and
   resurrect or merge tuples, proposals the planner answers from the
   cache and by fragment seeding, a compaction — through the prov-free
   cores alone, and no arena on the way builds its whole-instance
   index; the shards the planner materializes and [consistent] carry a
   built one. *)
let test_no_whole_index () =
  let p0 =
    Workload.Pivot_family.generate ~rng:(rng 5)
      { Workload.Pivot_family.depth = 3; num_roots = 6; tuples_per_relation = 4;
        num_queries = 2; deletion_fraction = 0.0 }
  in
  let a = ref (D.Arena.of_problem p0) in
  let cindex = ref (D.Component_index.build !a) in
  let cache = D.Planner.create_cache ~capacity:64 () in
  let unbuilt tag (x : D.Arena.t) =
    Alcotest.(check bool) (tag ^ ": no whole-instance index") false (Lazy.is_val x.D.Arena.prov)
  in
  let live_vids () =
    List.filter
      (fun vid -> not (Setcover.Bitset.mem !a.D.Arena.dead_v vid))
      (List.init (D.Arena.num_vtuples !a) Fun.id)
  in
  (* the first live view tuple of every other component, in vid order *)
  let requests () =
    let seen = Hashtbl.create 8 in
    List.filter_map
      (fun vid ->
        let c = D.Component_index.component_of_vid !cindex !a vid in
        if Hashtbl.mem seen c then None
        else begin
          Hashtbl.add seen c ();
          if Hashtbl.length seen mod 2 = 0 then None else
          let vt = !a.D.Arena.vtuples.(vid) in
          Some (D.Delta_request.make ~view:vt.D.Vtuple.query [ vt.D.Vtuple.tuple ])
        end)
      (live_vids ())
  in
  let propose tag =
    match D.Arena.with_requests !a (requests ()) with
    | Error e -> Alcotest.fail (tag ^ ": " ^ D.Delta_request.error_to_string e)
    | Ok a' ->
      let r = D.Planner.solve ~domains:1 ~index:!cindex ~cache a' in
      Alcotest.(check bool) (tag ^ ": decomposed") true r.D.Planner.decomposed;
      cindex := r.D.Planner.index;
      unbuilt (tag ^ ": re-stamp") a';
      unbuilt tag !a;
      let sh = D.Arena.materialize a' (D.Component_index.active !cindex a').(0) in
      Alcotest.(check bool) (tag ^ ": a materialized shard's index is built") true
        (Lazy.is_val sh.D.Arena.arena.D.Arena.prov)
  in
  (* the live sid in the most witnesses: deleting it splits its
     component *)
  let hub () =
    let best = ref (-1) in
    Array.iteri
      (fun sid row ->
        if
          (not (Setcover.Bitset.mem !a.D.Arena.dead_s sid))
          && (!best < 0 || Array.length row > Array.length !a.D.Arena.containing.(!best))
        then best := sid)
      !a.D.Arena.containing;
    !a.D.Arena.stuples.(!best)
  in
  let delete tag dd =
    let a' = D.Arena.tombstone !a ~dd in
    let c' = D.Component_index.delete !cindex ~before:!a ~dd a' in
    cindex := D.Planner.seed_fragments cache ~before:!a ~before_index:!cindex ~dd ~after:a' ~after_index:c';
    a := a';
    unbuilt tag !a
  in
  let insert tag ins =
    let before, a' = D.Arena.insert !a ~ins in
    let c = if before == !a then !cindex else D.Component_index.compact !cindex ~before:!a in
    cindex := D.Component_index.insert c ~before a';
    a := a';
    unbuilt tag before;
    unbuilt tag !a;
    (* in place: no id moved *)
    a'.D.Arena.stuples == before.D.Arena.stuples
  in
  propose "first proposal";
  propose "cached proposal";
  let split = hub () in
  delete "split" (R.Stuple.Set.singleton split);
  propose "after the split";
  Alcotest.(check bool) "resurrected in place" true
    (insert "resurrect" (R.Stuple.Set.singleton split));
  propose "after the resurrection";
  delete "second split" (R.Stuple.Set.singleton (hub ()));
  (* a copy of the first tuple under a key no tuple holds *)
  let st = !a.D.Arena.stuples.(0) in
  let renamed =
    R.Stuple.make st.R.Stuple.rel
      (R.Tuple.init (R.Tuple.arity st.R.Stuple.tuple) (fun j ->
           match R.Tuple.get st.R.Stuple.tuple j with
           | R.Value.Str s when j = 0 -> R.Value.Str (s ^ "'")
           | R.Value.Int k when j = 0 -> R.Value.Int (k + 100_000)
           | v -> v))
  in
  Alcotest.(check bool) "merged" false (insert "merge" (R.Stuple.Set.singleton renamed));
  propose "after the merge";
  delete "third split" (R.Stuple.Set.singleton (hub ()));
  cindex := D.Component_index.compact !cindex ~before:!a;
  a := D.Arena.compact !a;
  unbuilt "compaction" !a;
  propose "after the compaction";
  Alcotest.(check bool) "consistent builds it" true
    (Lazy.is_val (D.Arena.consistent !a).D.Arena.prov)

(* ---- inserts that make an answer ambiguous ---- *)

(* Fig. 1 under the non-key-preserving Q3(x, z) :- T1(x, y), T2(y, z, w)
   minus [drop]: Q3(John, XML) has the one derivation through TKDE *)
let q3_problem drop =
  let db = List.fold_left R.Instance.remove (Workload.Author_journal.db ()) drop in
  D.Problem.make ~db ~queries:[ Workload.Author_journal.q3 ] ~deletions:[]
    ~allow_non_key_preserving:true ()

let t1 a j = R.Stuple.make "T1" (R.Tuple.strs [ a; j ])
let t2 j t = R.Stuple.make "T2" (R.Tuple.of_list [ R.Value.str j; R.Value.str t; R.Value.int 30 ])

(* the arena, the Provenance fold and a build of the extended instance
   all reject the insertion, naming the same view tuple *)
let check_ambiguous tag ~drop ~ins ~expect =
  let p = q3_problem drop in
  let ins = R.Stuple.Set.of_list ins in
  let raises what f =
    match f () with
    | _ -> Alcotest.failf "%s: %s accepted the insertion" tag what
    | exception D.Provenance.Ambiguous_witness vt ->
      Alcotest.(check string) (tag ^ ": " ^ what) expect (D.Vtuple.to_string vt)
  in
  raises "Arena.insert" (fun () -> D.Arena.insert (D.Arena.of_problem p) ~ins);
  raises "Provenance.insert" (fun () ->
      R.Stuple.Set.fold (fun st prov -> D.Provenance.insert prov st) ins (D.Provenance.build p));
  raises "Provenance.build" (fun () ->
      D.Provenance.build
        (D.Problem.patch
           ~db:(R.Stuple.Set.fold (fun st db -> R.Instance.add_stuple db st) ins p.D.Problem.db)
           ~deletions:D.Smap.empty p))

let test_insert_ambiguous () =
  (* one tuple completes a second derivation of a live answer *)
  check_ambiguous "one tuple" ~drop:[ t1 "John" "TODS" ] ~ins:[ t1 "John" "TODS" ]
    ~expect:"Q3(John, XML)";
  (* two tuples of one delta complete it together: neither alone
     derives anything *)
  check_ambiguous "two tuples together" ~drop:[ t1 "John" "TODS"; t2 "TODS" "XML" ]
    ~ins:[ t1 "John" "TODS"; t2 "TODS" "XML" ] ~expect:"Q3(John, XML)";
  (* two tuples of one delta each derive the same new answer *)
  check_ambiguous "two derivations of a new answer" ~drop:[ t1 "John" "TODS" ]
    ~ins:[ t1 "Ann" "TKDE"; t1 "Ann" "TODS" ] ~expect:"Q3(Ann, XML)"

(* ---- fingerprints pinned to the set-based code's values ---- *)

let test_pinned_fingerprints () =
  let p =
    Workload.Pivot_family.generate ~rng:(rng 3)
      { Workload.Pivot_family.depth = 3; num_roots = 5; tuples_per_relation = 4;
        num_queries = 2; deletion_fraction = 0.4 }
  in
  let a = D.Arena.of_problem p in
  let ps = (D.Component_index.active (D.Component_index.build a) a).(0) in
  let hex = D.Fingerprint.to_hex in
  Alcotest.(check string) "arena" "cc3894a2b9180d5c" (hex (D.Fingerprint.arena a));
  Alcotest.(check string) "shard" "3f8173ae5149a73b" (hex (D.Fingerprint.shard a ps));
  Alcotest.(check string) "digest" "dc5181f844e98155" (hex (D.Fingerprint.digest a));
  Alcotest.(check string) "set-based digest" "dc5181f844e98155"
    (hex (Digest_ref.digest (D.Provenance.build p)))

let suite =
  [
    prop_lockstep;
    Alcotest.test_case "no whole-instance index on the session path" `Quick test_no_whole_index;
    Alcotest.test_case "insert: ambiguous answers are rejected" `Quick test_insert_ambiguous;
    Alcotest.test_case "fingerprints keep their values" `Quick test_pinned_fingerprints;
  ]
