(* The rows file: a session's base index read back without the join.

   The round trip — [Provenance.intern_bodies], [Rows.write],
   [Rows.load], [Provenance.of_bodies], [Arena.of_interning] — must give
   back [Provenance.intern] and [Arena.of_problem] field for field, on
   the workload families and on hand-written queries with a self-join
   that reuses one tuple in consecutive atoms and with constants in a
   body. Then the engine: a snapshotted session with an intact file
   recovers from it; every damage shape is rejected with its reason, and
   the session still recovers warm with the same answers and leaves an
   intact file behind; a forged file that drops an answer passes its
   own checks and is caught by the image digest. *)

open Util
module R = Relational
module D = Deleprop
module Rows = Engine.Rows
module Du = Engine.Durable

(* ---- the round trip ---- *)

let check_interning_equal tag (a : D.Provenance.interning) (b : D.Provenance.interning) =
  let same eq x y = Array.length x = Array.length y && Array.for_all2 eq x y in
  let rows = same (same Int.equal) in
  Alcotest.(check bool) (tag ^ ": sorted_stuples") true
    (same R.Stuple.equal a.D.Provenance.sorted_stuples b.D.Provenance.sorted_stuples);
  Alcotest.(check bool) (tag ^ ": sorted_vtuples") true
    (same D.Vtuple.equal a.D.Provenance.sorted_vtuples b.D.Provenance.sorted_vtuples);
  Alcotest.(check bool) (tag ^ ": witness_rows") true
    (rows a.D.Provenance.witness_rows b.D.Provenance.witness_rows);
  Alcotest.(check bool) (tag ^ ": path_rows") true
    (rows a.D.Provenance.path_rows b.D.Provenance.path_rows)

let with_file f =
  let path = Filename.temp_file "deleprop_rows" ".rows" in
  Fun.protect
    ~finally:(fun () -> List.iter Du.remove [ path; path ^ ".tmp" ])
    (fun () -> f path)

let key_of (p : D.Problem.t) =
  D.Fingerprint.content_key (D.Provenance.sorted_stuples p.D.Problem.db) p.D.Problem.queries

let check_roundtrip tag (p : D.Problem.t) =
  let ids, bodies = D.Provenance.intern_bodies p in
  let stuples = D.Provenance.sorted_stuples p.D.Problem.db in
  let key = D.Fingerprint.content_key stuples p.D.Problem.queries in
  Alcotest.(check bool) (tag ^ ": the join's tuples give the key") true
    (D.Fingerprint.equal key
       (D.Fingerprint.content_key ids.D.Provenance.sorted_stuples p.D.Problem.queries));
  with_file (fun path ->
      Rows.write ~key path bodies;
      match Rows.load ~key path with
      | Error r -> Alcotest.failf "%s: load rejected the file: %a" tag Rows.pp_rejection r
      | Ok loaded -> (
        match D.Provenance.of_bodies p ~stuples loaded with
        | Error m -> Alcotest.failf "%s: of_bodies rejected the rows: %s" tag m
        | Ok ids' ->
          check_interning_equal (tag ^ ": loaded = intern") (D.Provenance.intern p) ids';
          Test_engine.check_arena_equal (tag ^ ": of_interning = of_problem")
            (D.Arena.of_interning p ids') (D.Arena.of_problem p)))

(* one instance picked by the seed: a star schema, a single cross
   product, a pivot forest, a forest or a hardness reduction, with or
   without ΔV *)
let family_problem seed =
  let rng = rng seed in
  let deletion_fraction = if seed mod 2 = 0 then 0.0 else 0.3 in
  match seed / 2 mod 5 with
  | 0 ->
    Workload.Random_family.generate ~rng
      { Workload.Random_family.default with
        num_dimensions = 3; fact_tuples = 12; dim_tuples = 4; num_queries = 3;
        project_free = Random.State.bool rng; deletion_fraction }
  | 1 ->
    Workload.Random_family.generate_single ~rng
      { Workload.Random_family.default with fact_tuples = 5; dim_tuples = 4 }
  | 2 ->
    Workload.Pivot_family.generate ~rng
      { Workload.Pivot_family.default with
        depth = 3; num_roots = 3; tuples_per_relation = 8; deletion_fraction }
  | 3 ->
    (Workload.Forest_family.generate ~rng
       { Workload.Forest_family.default with
         num_relations = 4; tuples_per_relation = 6; num_queries = 3; deletion_fraction })
      .Workload.Forest_family.problem
  | _ ->
    (fst
       (Workload.Hard_family.generate ~rng
          { Workload.Hard_family.default with num_red = 4; num_blue = 4; num_sets = 5 }))
      .D.Hardness.problem

let prop_families =
  qcheck ~count:150 "round trip = intern, of_problem on the families"
    (QCheck2.Gen.int_range 0 100_000) (fun seed ->
      check_roundtrip (Printf.sprintf "seed %d" seed) (family_problem seed);
      true)

(* R(A, B) keyed on A, S(B, C) keyed on B. [Q1]'s first two atoms read
   the same R tuple (one key), so its body sids repeat and the path row
   drops one; [Q2] and [Q3] carry constants in their bodies. S(f, b)
   agrees with [Q2]'s atom in all but its relation *)
let hand_schema () =
  R.Schema.Db.of_list
    [
      R.Schema.make ~name:"R" ~attrs:[ "A"; "B" ] ~key:[ 0 ];
      R.Schema.make ~name:"S" ~attrs:[ "B"; "C" ] ~key:[ 0 ];
    ]

let hand_db () =
  R.Instance.of_alist (hand_schema ())
    [
      ("R", [ R.Tuple.strs [ "a1"; "b" ]; R.Tuple.strs [ "a2"; "b" ]; R.Tuple.strs [ "a3"; "d" ] ]);
      ("S", [ R.Tuple.strs [ "b"; "c" ]; R.Tuple.strs [ "d"; "e" ]; R.Tuple.strs [ "f"; "b" ] ]);
    ]

let hand_queries () =
  List.map Cq.Parser.query_of_string
    [
      "Q1(X, Y, C) :- R(X, Y), R(X, Z), S(Y, C)";
      "Q2(X) :- R(X, b)";
      "Q3(X, Y) :- R(X, Y), S(Y, c)";
    ]

let test_hand_written () =
  let p = D.Problem.make ~db:(hand_db ()) ~queries:(hand_queries ()) ~deletions:[] () in
  let _, bodies = D.Provenance.intern_bodies p in
  Alcotest.(check bool) "Q1's bodies repeat their R tuple" true
    (Array.for_all (fun w -> w.(0) = w.(1)) (List.assoc "Q1" bodies));
  Alcotest.(check int) "Q2 reads the constant" 2 (Array.length (List.assoc "Q2" bodies));
  check_roundtrip "hand-written" p;
  check_roundtrip "hand-written, with ΔV"
    (D.Problem.make ~db:(hand_db ()) ~queries:(hand_queries ())
       ~deletions:[ ("Q2", [ R.Tuple.strs [ "a2" ] ]) ]
       ())

(* the key separates what the rows depend on: a changed tuple, a
   constant of another type (its text prints alike), the query order *)
let test_key () =
  let q = Cq.Parser.query_of_string in
  let stuples = D.Provenance.sorted_stuples (hand_db ()) in
  let key = D.Fingerprint.content_key in
  let qs = hand_queries () in
  Alcotest.(check bool) "same inputs, same key" true
    (D.Fingerprint.equal (key stuples qs) (key (Array.copy stuples) (hand_queries ())));
  let changed = Array.copy stuples in
  changed.(0) <- st "R" [ "a0"; "b" ];
  let differ what a b = Alcotest.(check bool) what false (D.Fingerprint.equal a b) in
  differ "a tuple changed" (key stuples qs) (key changed qs);
  differ "an Int constant against a Str one" (key stuples [ q "Q2(X) :- R(X, 1)" ])
    (key stuples [ q "Q2(X) :- R(X, '1')" ]);
  differ "queries reordered" (key stuples qs) (key stuples (List.rev qs))

(* bodies that break what [of_bodies] checks, each rejected *)
let test_of_bodies_rejects () =
  let p = D.Problem.make ~db:(hand_db ()) ~queries:(hand_queries ()) ~deletions:[] () in
  let stuples = D.Provenance.sorted_stuples p.D.Problem.db in
  let _, bodies = D.Provenance.intern_bodies p in
  let sid_of t =
    let rec go i = if R.Stuple.equal stuples.(i) t then i else go (i + 1) in
    go 0
  in
  let with_q1 f =
    List.map (fun (q, ws) -> if q = "Q1" then (q, f (Array.map Array.copy ws)) else (q, ws)) bodies
  in
  List.iter
    (fun (what, bodies) ->
      match D.Provenance.of_bodies p ~stuples bodies with
      | Ok _ -> Alcotest.failf "%s: accepted" what
      | Error _ -> ())
    [
      ("a sid out of range", with_q1 (fun ws -> ws.(0).(2) <- Array.length stuples; ws));
      ("a negative sid", with_q1 (fun ws -> ws.(0).(0) <- -1; ws));
      ("a tuple of another relation", with_q1 (fun ws -> ws.(0).(0) <- ws.(0).(2); ws));
      ("a join condition broken", with_q1 (fun ws -> ws.(0).(1) <- ws.(1).(0); ws));
      ("a body one atom short", with_q1 (fun ws -> ws.(0) <- Array.sub ws.(0) 0 2; ws));
      ( "two answers swapped",
        with_q1 (fun ws ->
            let w = ws.(0) in
            ws.(0) <- ws.(1);
            ws.(1) <- w;
            ws) );
      ("an answer twice", with_q1 (fun ws -> ws.(1) <- ws.(0); ws));
      ("a query's rows missing", List.filter (fun (q, _) -> q <> "Q2") bodies);
      ("queries out of order", List.rev bodies);
      ( "a tuple of another relation that matches the atom",
        List.map
          (fun (q, ws) -> if q = "Q2" then (q, [| ws.(0); [| sid_of (st "S" [ "f"; "b" ]) |] |]) else (q, ws))
          bodies );
      ( "a constant disagrees",
        (* R(a3, d) has no b *)
        List.map
          (fun (q, ws) -> if q = "Q2" then (q, [| [| sid_of (st "R" [ "a3"; "d" ]) |] |]) else (q, ws))
          bodies );
    ]

(* ---- the engine: warm recovery from the file, and every damage shape ---- *)

let rows_of spath = Rows.path spath
let read = Test_resilience.read_whole

let write path data =
  let oc = open_out_bin path in
  output_string oc data;
  close_out oc

(* the bytes [Rows.write] writes *)
let encoded ~key bodies =
  with_file (fun path ->
      Rows.write ~key path bodies;
      read path)

(* the tri session's rows, recomputed: what a forged file starts from *)
let tri_problem () =
  D.Problem.make ~db:(Test_shardcache.tri_db ()) ~queries:(Test_shardcache.tri_queries ())
    ~deletions:[] ()

let tri_key () = key_of (tri_problem ())
let tri_bodies () = snd (D.Provenance.intern_bodies (tri_problem ()))

(* the file's bytes with its header payload rewritten and re-framed *)
let reframe_header data f =
  match Du.read_frame data 0 with
  | Du.Frame (h, next) -> Du.frame (f h) ^ String.sub data next (String.length data - next)
  | _ -> Alcotest.fail "the intact file's header does not read"

let base_index = Alcotest.testable Engine.pp_base_index ( = )

(* the base index as its stats label: the source, or a re-join's reason *)
let label = function
  | Engine.Joined -> "joined"
  | Engine.Rows_file -> "rows_file"
  | Engine.Rejoined r -> Rows.rejection_label r

let reference = lazy (Test_rewarm.reference_round ())

(* Recover from the seeded journal and image with [rows] (or no rows
   file) in place: the session must come back warm with all three
   entries, report [expect] as its base index's label, answer the next
   round as the uninterrupted session does, and leave the intact rows
   file behind *)
let check_recovery tag ~jpath ~spath ~journal ~image ~intact ~expect rows =
  write jpath journal;
  write spath image;
  (match rows with Some data -> write (rows_of spath) data | None -> Du.remove (rows_of spath));
  let status, p, stats = Test_rewarm.recover_and_round tag jpath spath in
  (match status with
  | Engine.Warm { entries = 3; dropped = 0 } -> ()
  | s -> Alcotest.failf "%s: recovered %a" tag Engine.pp_snapshot_status s);
  Alcotest.(check string) (tag ^ ": base index") expect (label stats.Engine.base_index);
  Test_engine.check_solutions_equal (tag ^ ": answers") p.Engine.solutions
    (Lazy.force reference).Engine.solutions;
  Alcotest.(check bool) (tag ^ ": an intact rows file stays behind") true
    (String.equal intact (read (rows_of spath)))

let seeded f =
  Test_rewarm.with_paths (fun jpath spath ->
      Test_rewarm.seed_session jpath spath;
      let journal = read jpath and image = read spath and intact = read (rows_of spath) in
      f ~jpath ~spath ~journal ~image ~intact)

(* the acceptance shape: a snapshotted session with an intact rows file
   recovers from it *)
let test_recover_from_rows () =
  seeded (fun ~jpath ~spath ~journal ~image ~intact ->
      check_recovery "intact" ~jpath ~spath ~journal ~image ~intact ~expect:"rows_file"
        (Some intact);
      Alcotest.(check bool) "the file is the encoding of the join" true
        (String.equal intact (encoded ~key:(tri_key ()) (tri_bodies ()))))

let test_damage_shapes () =
  seeded (fun ~jpath ~spath ~journal ~image ~intact ->
      let check tag expect rows =
        check_recovery tag ~jpath ~spath ~journal ~image ~intact ~expect rows
      in
      (* the tri session's rows edited, under the right key and with
         recomputed CRCs *)
      let forged f =
        Some
          (encoded ~key:(tri_key ())
             (List.map (fun (q, ws) -> (q, f (Array.map Array.copy ws))) (tri_bodies ())))
      in
      check "missing" "missing" None;
      for k = 0 to String.length intact - 1 do
        check (Printf.sprintf "truncated to %d bytes" k) "checksum" (Some (String.sub intact 0 k))
      done;
      for i = 0 to String.length intact - 1 do
        let b = Bytes.of_string intact in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl (i mod 8))));
        check (Printf.sprintf "bit %d of byte %d flipped" (i mod 8) i) "checksum"
          (Some (Bytes.to_string b))
      done;
      check "version 2" "version"
        (Some
           (reframe_header intact (fun h ->
                let b = Bytes.of_string h in
                Bytes.set_int32_le b 8 2l;
                Bytes.to_string b)));
      let foreign (p : D.Problem.t) =
        Some (encoded ~key:(key_of p) (snd (D.Provenance.intern_bodies p)))
      in
      check "another database (one tuple changed)" "key"
        (foreign
           (D.Problem.make
              ~db:
                (R.Instance.add_stuple
                   (R.Instance.remove (Test_shardcache.tri_db ()) (st "T1" [ "C"; "J3" ]))
                   (st "T1" [ "C2"; "J3" ]))
              ~queries:(Test_shardcache.tri_queries ()) ~deletions:[] ()));
      check "other queries" "key"
        (foreign
           (D.Problem.make ~db:(Test_shardcache.tri_db ())
              ~queries:[ Cq.Parser.query_of_string "Q4(X, Y, Z) :- T1(X, Y), T2(Y, Z, V)" ]
              ~deletions:[] ()));
      let ns = Array.length (D.Provenance.sorted_stuples (Test_shardcache.tri_db ())) in
      check "a sid out of range" "invalid_row" (forged (fun ws -> ws.(0).(1) <- ns; ws));
      check "a wrong relation" "invalid_row"
        (forged (fun ws ->
             ws.(0) <- [| ws.(0).(1); ws.(0).(0) |];
             ws));
      check "a join condition broken" "invalid_row"
        (forged (fun ws -> ws.(0).(1) <- ws.(1).(1); ws));
      check "two answers swapped" "invalid_row"
        (forged (fun ws ->
             let w = ws.(0) in
             ws.(0) <- ws.(1);
             ws.(1) <- w;
             ws));
      (* a forged file that drops an answer passes every check of its
         own: the image digest catches it, and the retry re-joins *)
      check "an answer dropped" "digest_mismatch"
        (forged (fun ws -> Array.sub ws 1 (Array.length ws - 1))))

(* a rows write that fails is logged, not raised: the session runs,
   and its recovery re-joins, warm *)
let test_failed_write () =
  Test_rewarm.with_paths (fun jpath spath ->
      D.Failpoint.set "rows.write" (D.Failpoint.Crash_after_bytes 10);
      Fun.protect
        ~finally:(fun () -> D.Failpoint.clear "rows.write")
        (fun () -> Test_rewarm.seed_session jpath spath);
      Alcotest.(check bool) "no rows file" false (Sys.file_exists (rows_of spath));
      let status, p, stats = Test_rewarm.recover_and_round "after a failed write" jpath spath in
      (match status with
      | Engine.Warm _ -> ()
      | s -> Alcotest.failf "recovered %a" Engine.pp_snapshot_status s);
      Alcotest.check base_index "base index" (Engine.Rejoined Rows.Missing)
        stats.Engine.base_index;
      Test_engine.check_solutions_equal "answers" p.Engine.solutions
        (Lazy.force reference).Engine.solutions;
      Alcotest.(check bool) "the recovery left no temp file" false
        (Sys.file_exists (rows_of spath ^ ".tmp"));
      Alcotest.(check bool) "the recovery wrote the file" true (Sys.file_exists (rows_of spath)))

(* the status reaches the JSON stats *)
let test_stats_json () =
  seeded (fun ~jpath ~spath ~journal:_ ~image:_ ~intact:_ ->
      let json status = D.Report.to_string (Engine.Stats.to_json { Engine.Stats.zero with Engine.base_index = status }) in
      let has s sub = Astring.String.is_infix ~affix:sub s in
      Alcotest.(check bool) "joined" true (has (json Engine.Joined) {|"base_index":{"source":"joined"}|});
      Alcotest.(check bool) "rows file" true
        (has (json Engine.Rows_file) {|"base_index":{"source":"rows_file"}|});
      Alcotest.(check bool) "rejoined" true
        (has (json (Engine.Rejoined Rows.Checksum))
           {|"base_index":{"source":"rejoined","reason":"checksum"}|});
      let eng = Test_rewarm.create_session ~recover:true jpath spath in
      Alcotest.check base_index "a recovery reads the file" Engine.Rows_file
        (Engine.stats eng).Engine.base_index;
      Engine.close eng;
      let eng = Test_rewarm.create_session jpath spath in
      Alcotest.check base_index "a fresh session joins" Engine.Joined
        (Engine.stats eng).Engine.base_index;
      Engine.close eng)

let suite =
  [
    prop_families;
    Alcotest.test_case "round trip: self-join and constants" `Quick test_hand_written;
    Alcotest.test_case "key: tuples, constant types, query order" `Quick test_key;
    Alcotest.test_case "of_bodies rejects a bad body" `Quick test_of_bodies_rejects;
    Alcotest.test_case "engine: recovery reads an intact file" `Quick test_recover_from_rows;
    Alcotest.test_case "engine: every damage shape re-joins warm" `Quick test_damage_shapes;
    Alcotest.test_case "engine: a failed write re-joins warm" `Quick test_failed_write;
    Alcotest.test_case "engine: base_index in the stats" `Quick test_stats_json;
  ]
