(* Warm recovery: the snapshot codec, the degradation ladder, the
   snapshot failpoints, and the kill-point fuzz property showing a
   crashed-recovered-re-warmed session indistinguishable from one that
   never crashed — bit-identical solutions, shard decisions, partition
   sizes, and (at checkpoint boundaries) shard-cache hit counters. *)

open Util
module R = Relational
module D = Deleprop
module S = Engine.Snapshot

(* elevated in CI's recovery-fuzz step via DELEPROP_REWARM_COUNT *)
let fuzz_count =
  match Sys.getenv_opt "DELEPROP_REWARM_COUNT" with
  | Some s -> ( try max 1 (int_of_string (String.trim s)) with Failure _ -> 40)
  | None -> 40

(* the three-component instance from the shard-cache suite: J1/J2/J3
   are independent, so a single-component delta leaves two shards
   clean — exactly what a snapshot is supposed to keep warm *)
let tri_db = Test_shardcache.tri_db
let tri_queries = Test_shardcache.tri_queries
let tri_view = Test_shardcache.tri_view
let request_exn = Test_shardcache.request_exn
let check_decisions_equal = Test_shardcache.check_decisions_equal
let check_solutions_equal = Test_engine.check_solutions_equal

let all_reqs () =
  [
    D.Delta_request.make ~view:"Q4"
      [ tri_view "A" "J1"; tri_view "B" "J2"; tri_view "C" "J3" ];
  ]

let with_paths f =
  let jpath = Filename.temp_file "deleprop_rewarm" ".journal" in
  let spath = jpath ^ ".snap" in
  Fun.protect
    ~finally:(fun () ->
      Engine.Journal.remove jpath;
      S.remove spath;
      S.remove (spath ^ ".ref");
      List.iter
        (fun p -> try Sys.remove (p ^ ".tmp") with Sys_error _ -> ())
        [ jpath; spath ])
    (fun () -> f jpath spath)

let fp hex =
  match D.Fingerprint.of_hex hex with
  | Some f -> f
  | None -> Alcotest.fail ("bad fingerprint hex: " ^ hex)

(* ---- the codec, round-tripped on hand-built data ---- *)

(* awkward floats on purpose: an unrepresentable decimal sum, a
   subnormal-adjacent tiny, the least subnormal, a negative zero,
   infinity — the hex-bits encoding must bring every one back
   bit-identical, tree values and slacks included *)
let sample_entries () =
  let key st = R.Stuple.to_string st in
  let node ?parent ~depth ~cut ~value ~slack () =
    {
      D.Decomposition.fn_parent = Option.map key parent;
      fn_depth = depth;
      fn_cut = cut;
      fn_value = value;
      fn_slack = slack;
    }
  in
  [
    ( fp "0123456789abcdef",
      {
        D.Planner.e_classification = D.Planner.Exact_small;
        e_winner = "brute";
        e_deleted =
          R.Stuple.Set.of_list
            [ st "T1" [ "A"; "J1" ]; st "T2" [ "J1"; "X"; "W1" ] ];
        e_cost = 0.1 +. 0.2;
        e_certificate = D.Solution.Exact;
        e_forest = false;
        e_split = true;
        e_vtuples = 4;
        e_decomposition = [];
      } );
    ( fp "fedcba9876543210",
      {
        D.Planner.e_classification = D.Planner.Approximate;
        e_winner = "primal-dual";
        e_deleted = R.Stuple.Set.empty;
        e_cost = 1e-300;
        e_certificate =
          D.Solution.Composite { shards = 3; factor = Some (1. /. 3.) };
        e_forest = true;
        e_split = false;
        e_vtuples = 9;
        e_decomposition = [];
      } );
    ( fp "00000000000000ff",
      {
        D.Planner.e_classification = D.Planner.Exact_forest;
        e_winner = "dp-tree";
        e_deleted = R.Stuple.Set.singleton (st "T1" [ "B"; "J2" ]);
        e_cost = 42.0;
        e_certificate = D.Solution.Dual_bound 41.5;
        e_forest = true;
        e_split = false;
        e_vtuples = 6;
        e_decomposition =
          [
            {
              D.Decomposition.ft_pivot = key (st "T1" [ "B"; "J2" ]);
              ft_nodes =
                [
                  ( key (st "T1" [ "B"; "J2" ]),
                    node ~depth:0 ~cut:true ~value:42.0 ~slack:0.0 () );
                  ( key (st "T2" [ "J1"; "X"; "W1" ]),
                    node
                      ~parent:(st "T1" [ "B"; "J2" ])
                      ~depth:1 ~cut:false ~value:(0.1 +. 0.2)
                      ~slack:(Int64.float_of_bits 1L) () );
                  ( key (st "T3" [ "W1" ]),
                    node
                      ~parent:(st "T2" [ "J1"; "X"; "W1" ])
                      ~depth:2 ~cut:false ~value:(-0.0)
                      ~slack:Float.infinity () );
                ];
            };
            {
              D.Decomposition.ft_pivot = key (st "T1" [ "C"; "J3" ]);
              ft_nodes =
                [
                  ( key (st "T1" [ "C"; "J3" ]),
                    node ~depth:0 ~cut:false
                      ~value:(Int64.float_of_bits 1L)
                      ~slack:(0.1 +. 0.2) () );
                ];
            };
          ];
      } );
  ]

let sample_snapshot () =
  {
    S.position = 7;
    generation = 2;
    arena_fp = fp "00000000deadbeef";
    components = 3;
    dirty = [ 0; 2 ];
    stats =
      {
        D.Planner.s_hits = 11;
        s_misses = 4;
        s_fragment_reuses = 3;
        s_fragment_reuses_exact = 1;
        s_fragment_reuses_forest = 1;
        s_fragment_reuses_approx = 1;
      };
    baseline =
      ( R.Stuple.Set.singleton (st "T2" [ "J1"; "X"; "W1" ]),
        R.Stuple.Set.of_list [ st "T1" [ "A"; "J1" ]; st "T1" [ "B"; "J2" ] ] );
    entries = sample_entries ();
  }

let bits = Int64.bits_of_float

let check_entry_equal tag (e : D.Planner.cache_entry)
    (a : D.Planner.cache_entry) =
  Alcotest.(check bool) (tag ^ ": classification") true
    (e.D.Planner.e_classification = a.D.Planner.e_classification);
  Alcotest.(check string) (tag ^ ": winner") e.D.Planner.e_winner
    a.D.Planner.e_winner;
  Alcotest.(check bool) (tag ^ ": deleted set") true
    (R.Stuple.Set.equal e.D.Planner.e_deleted a.D.Planner.e_deleted);
  Alcotest.(check int64) (tag ^ ": cost bits") (bits e.D.Planner.e_cost)
    (bits a.D.Planner.e_cost);
  Alcotest.(check bool) (tag ^ ": certificate") true
    (e.D.Planner.e_certificate = a.D.Planner.e_certificate);
  Alcotest.(check bool) (tag ^ ": forest") e.D.Planner.e_forest
    a.D.Planner.e_forest;
  Alcotest.(check bool) (tag ^ ": split") e.D.Planner.e_split
    a.D.Planner.e_split;
  Alcotest.(check int) (tag ^ ": vtuples") e.D.Planner.e_vtuples
    a.D.Planner.e_vtuples;
  Alcotest.(check int) (tag ^ ": tree count")
    (List.length e.D.Planner.e_decomposition)
    (List.length a.D.Planner.e_decomposition);
  List.iteri
    (fun i
         ((te : D.Decomposition.forest_tree), (ta : D.Decomposition.forest_tree)) ->
      let tag = Printf.sprintf "%s: tree %d" tag i in
      Alcotest.(check string) (tag ^ ": pivot") te.D.Decomposition.ft_pivot
        ta.D.Decomposition.ft_pivot;
      Alcotest.(check int) (tag ^ ": node count")
        (List.length te.D.Decomposition.ft_nodes)
        (List.length ta.D.Decomposition.ft_nodes);
      List.iter2
        (fun (ke, (ne : D.Decomposition.forest_node)) (ka, na) ->
          let tag = tag ^ ": node " ^ ke in
          Alcotest.(check string) (tag ^ ": key") ke ka;
          Alcotest.(check (option string)) (tag ^ ": parent")
            ne.D.Decomposition.fn_parent na.D.Decomposition.fn_parent;
          Alcotest.(check int) (tag ^ ": depth") ne.D.Decomposition.fn_depth
            na.D.Decomposition.fn_depth;
          Alcotest.(check bool) (tag ^ ": cut") ne.D.Decomposition.fn_cut
            na.D.Decomposition.fn_cut;
          Alcotest.(check int64) (tag ^ ": value bits")
            (bits ne.D.Decomposition.fn_value)
            (bits na.D.Decomposition.fn_value);
          Alcotest.(check int64) (tag ^ ": slack bits")
            (bits ne.D.Decomposition.fn_slack)
            (bits na.D.Decomposition.fn_slack))
        te.D.Decomposition.ft_nodes ta.D.Decomposition.ft_nodes)
    (List.combine e.D.Planner.e_decomposition a.D.Planner.e_decomposition)

let load_snapshot_exn tag spath =
  match S.load spath with
  | Ok r -> r
  | Error w ->
    Alcotest.fail (Format.asprintf "%s: load failed: %a" tag S.pp_warning w)

let test_codec_roundtrip () =
  with_paths (fun _jpath spath ->
      let t = sample_snapshot () in
      S.write spath t;
      let t', dropped = load_snapshot_exn "round-trip" spath in
      Alcotest.(check int) "nothing dropped" 0 dropped;
      Alcotest.(check int) "position" t.S.position t'.S.position;
      Alcotest.(check int) "generation" t.S.generation t'.S.generation;
      Alcotest.(check bool) "arena fingerprint" true
        (D.Fingerprint.equal t.S.arena_fp t'.S.arena_fp);
      Alcotest.(check int) "components" t.S.components t'.S.components;
      Alcotest.(check (list int)) "dirty ids" t.S.dirty t'.S.dirty;
      Alcotest.(check bool) "cache counters" true (t.S.stats = t'.S.stats);
      let (g, a), (g', a') = (t.S.baseline, t'.S.baseline) in
      Alcotest.(check bool) "baseline gone" true (R.Stuple.Set.equal g g');
      Alcotest.(check bool) "baseline added" true (R.Stuple.Set.equal a a');
      Alcotest.(check int) "entry count" (List.length t.S.entries)
        (List.length t'.S.entries);
      List.iteri
        (fun i ((f, e), (f', e')) ->
          let tag = Printf.sprintf "entry %d" i in
          Alcotest.(check bool) (tag ^ ": fingerprint") true
            (D.Fingerprint.equal f f');
          check_entry_equal tag e e')
        (List.combine t.S.entries t'.S.entries))

(* ---- the degradation ladder, straight on [load] ---- *)

let write_whole path data =
  let oc = open_out_bin path in
  output_string oc data;
  close_out oc

(* forge another version's snapshot: patch the digit of the "version 6"
   header line and re-stamp the frame's CRC so only the version is
   wrong *)
let set_header_version data v =
  let hlen = Test_resilience.read_u32_le data 8 in
  let payload = Bytes.of_string (String.sub data 16 hlen) in
  Bytes.set payload 10 v (* "H\nversion 6" — the digit sits at offset 10 *);
  let payload = Bytes.to_string payload in
  let crc = Int32.to_int (Engine.Durable.crc32 payload) land 0xFFFFFFFF in
  String.sub data 0 8
  ^ Test_resilience.u32_le hlen
  ^ Test_resilience.u32_le crc
  ^ payload
  ^ String.sub data (16 + hlen) (String.length data - 16 - hlen)

(* byte offset of the baseline payload: magic, header frame, then the
   baseline frame's own 8-byte header (every image carries a
   baseline) *)
let baseline_offset data = 8 + 8 + Test_resilience.read_u32_le data 8 + 8

(* byte offset of the first entry payload: one more frame hop past the
   baseline *)
let first_entry_offset data =
  let b = 8 + 8 + Test_resilience.read_u32_le data 8 in
  b + 8 + Test_resilience.read_u32_le data b + 8

let expect_corrupt tag spath =
  match S.load spath with
  | Error (S.Corrupt _) -> ()
  | Ok _ -> Alcotest.fail (tag ^ ": expected Corrupt, loaded cleanly")
  | Error w ->
    Alcotest.fail
      (Format.asprintf "%s: expected Corrupt, got %a" tag S.pp_warning w)

let test_load_ladder () =
  with_paths (fun _jpath spath ->
      (match S.load spath with
      | Error S.Missing -> ()
      | _ -> Alcotest.fail "expected Missing");
      write_whole spath "DLPSNAPX definitely not a snapshot";
      expect_corrupt "bad magic" spath;
      S.write spath (sample_snapshot ());
      let intact = Test_resilience.read_whole spath in
      (* torn mid-header *)
      write_whole spath (String.sub intact 0 12);
      expect_corrupt "torn header" spath;
      (* a bit flip inside the header frame drops the whole snapshot *)
      write_whole spath intact;
      Test_resilience.flip_byte spath 20;
      expect_corrupt "header bit flip" spath;
      (* versions this build does not read: a future one, v5 — whose
         entries carry witness-group and contribution parts — v4, whose
         entries carry the parent-√‖V‖ threshold, v3, which may end in
         delta groups, and v2, whose pre-digest coordinate could never
         install *)
      List.iter
        (fun (c, v) ->
          write_whole spath (set_header_version intact c);
          match S.load spath with
          | Error (S.Version_mismatch v') when v' = v -> ()
          | Ok _ -> Alcotest.fail (Printf.sprintf "version %d loaded" v)
          | Error w ->
            Alcotest.fail
              (Format.asprintf "expected Version_mismatch %d, got %a" v
                 S.pp_warning w))
        [ ('9', 9); ('5', 5); ('4', 4); ('3', 3); ('2', 2) ];
      (* an image without its baseline cannot install: a bit flip inside
         the baseline frame drops the whole snapshot *)
      write_whole spath intact;
      Test_resilience.flip_byte spath (baseline_offset intact);
      expect_corrupt "baseline bit flip" spath;
      (* a bit flip inside one entry drops exactly that entry *)
      write_whole spath intact;
      Test_resilience.flip_byte spath (first_entry_offset intact);
      let t', dropped = load_snapshot_exn "entry bit flip" spath in
      Alcotest.(check int) "one entry dropped" 1 dropped;
      Alcotest.(check int) "the others survive" 2 (List.length t'.S.entries);
      (* a torn tail drops the final entry, keeps the prefix *)
      write_whole spath (String.sub intact 0 (String.length intact - 5));
      let t'', dropped'' = load_snapshot_exn "torn entry tail" spath in
      Alcotest.(check int) "torn final entry dropped" 1 dropped'';
      Alcotest.(check int) "prefix survives" 2 (List.length t''.S.entries))

(* ---- the snapshot writer's failpoint ---- *)

let test_snapshot_failpoints () =
  with_paths (fun jpath spath ->
      Fun.protect
        ~finally:(fun () ->
          D.Failpoint.clear "snapshot.write";
          D.Failpoint.clear "journal.rewrite")
        (fun () ->
          let old = sample_snapshot () in
          S.write spath old;
          (* dying mid-temp-write never touches the committed file *)
          let nu = { old with S.position = 99 } in
          D.Failpoint.set "snapshot.write" (D.Failpoint.Crash_after_bytes 10);
          Alcotest.check_raises "torn snapshot write raises"
            (D.Failpoint.Injected "snapshot.write") (fun () ->
              S.write spath nu);
          D.Failpoint.clear "snapshot.write";
          S.write (spath ^ ".ref") nu;
          Alcotest.(check string) "the torn temp image is the image's prefix"
            (String.sub (Test_resilience.read_whole (spath ^ ".ref")) 0 10)
            (Test_resilience.read_whole (spath ^ ".tmp"));
          let t', _ = load_snapshot_exn "after torn write" spath in
          Alcotest.(check int) "previous snapshot survives a torn write"
            old.S.position t'.S.position;
          (* an allowance covering the whole image: the rename commits
             before the injected kill *)
          D.Failpoint.set "snapshot.write"
            (D.Failpoint.Crash_after_bytes 1_000_000);
          Alcotest.check_raises "kill lands after the commit"
            (D.Failpoint.Injected "snapshot.write") (fun () ->
              S.write spath nu);
          D.Failpoint.clear "snapshot.write";
          let t', _ = load_snapshot_exn "after covered write" spath in
          Alcotest.(check int) "completed image is committed" 99 t'.S.position;
          (* silent at-rest damage: a flipped bit in the committed
             header degrades, never crashes *)
          S.write spath old;
          Test_resilience.flip_byte spath 20;
          expect_corrupt "at-rest corruption" spath;
          (* a replace that dies before its rename leaves its temp file,
             which holds no committed data: a recovery removes the
             journal's and the snapshot's, and so does a fresh create *)
          let torn_replaces () =
            D.Failpoint.set "snapshot.write" (D.Failpoint.Crash_after_bytes 10);
            (try S.write spath nu with D.Failpoint.Injected _ -> ());
            D.Failpoint.clear "snapshot.write";
            D.Failpoint.set "journal.rewrite" (D.Failpoint.Crash_after_bytes 10);
            (try Engine.Journal.rewrite jpath [] with D.Failpoint.Injected _ -> ());
            D.Failpoint.clear "journal.rewrite";
            List.iter
              (fun p ->
                Alcotest.(check bool) ("torn replace leaves " ^ Filename.basename p)
                  true (Sys.file_exists (p ^ ".tmp")))
              [ jpath; spath ]
          in
          let no_tmp tag =
            List.iter
              (fun p ->
                Alcotest.(check bool)
                  (tag ^ ": no " ^ Filename.basename p ^ ".tmp") false
                  (Sys.file_exists (p ^ ".tmp")))
              [ jpath; spath ]
          in
          let session recover =
            Engine.close
              (Engine.create ~domains:1 ~journal:jpath ~snapshot:spath ~recover
                 (tri_db ()) (tri_queries ()))
          in
          torn_replaces ();
          session true;
          no_tmp "recovery";
          torn_replaces ();
          session false;
          no_tmp "fresh create"))

(* ---- the frame memo: the bytes of the encoder without it ---- *)

let same_image a b =
  String.equal (Test_resilience.read_whole a) (Test_resilience.read_whole b)

(* the image at [spath] ≡ a memo-free write of its own load *)
let check_reencodes tag spath =
  let t, dropped = load_snapshot_exn tag spath in
  Alcotest.(check int) (tag ^ ": nothing dropped") 0 dropped;
  S.write (spath ^ ".ref") t;
  Alcotest.(check bool) (tag ^ ": image ≡ the encoder without the memo") true
    (same_image spath (spath ^ ".ref"))

(* a run of images through one memo, each against a memo-free write of
   the same value: unchanged records, a record replaced under its
   fingerprint (a memo keyed on the fingerprint alone writes the old
   frame there), evictions that shrink the cache, and frames seeded by
   a load *)
let test_frame_memo () =
  with_paths (fun _jpath spath ->
      let memo = S.frames () in
      let same tag t =
        S.write ~frames:memo spath t;
        S.write (spath ^ ".ref") t;
        Alcotest.(check bool) (tag ^ ": memo ≡ no memo") true
          (same_image spath (spath ^ ".ref"))
      in
      let t = sample_snapshot () in
      same "first image" t;
      same "every frame reused" { t with S.position = 8 };
      (* a new record under an unchanged fingerprint, with one field
         that encodes differently *)
      let replaced =
        match t.S.entries with
        | (fp0, e) :: rest ->
          (fp0, { e with D.Planner.e_split = not e.D.Planner.e_split }) :: rest
        | [] -> assert false
      in
      same "replaced under the same fingerprint" { t with S.entries = replaced };
      same "an eviction shrinks the cache" { t with S.entries = List.tl replaced };
      same "every entry evicted" { t with S.entries = [] };
      S.write spath t;
      let t', _ =
        match S.load ~frames:memo spath with
        | Ok r -> r
        | Error w -> Alcotest.fail (Format.asprintf "load: %a" S.pp_warning w)
      in
      same "the loaded frames reused" t')

(* ---- engine integration ---- *)

let create_session ?(recover = false) jpath spath =
  Engine.create ~domains:1 ~journal:jpath ~snapshot:spath
    ~snapshot_every:1 ~recover (tri_db ()) (tri_queries ())

(* one warm session: a full round (fills all three cache slots), then a
   single-component insert — its full image snapshots the warm cache
   with exactly J2's component dirty *)
let seed_session jpath spath =
  let eng = create_session jpath spath in
  ignore (request_exn "seed round" eng (all_reqs ()));
  Engine.insert eng (st "T1" [ "D"; "J2" ]);
  Engine.close eng

(* the uninterrupted twin of [seed_session] + one more round, journal-free *)
let reference_round () =
  let eng = Engine.create ~domains:1 (tri_db ()) (tri_queries ()) in
  ignore (request_exn "reference seed" eng (all_reqs ()));
  Engine.insert eng (st "T1" [ "D"; "J2" ]);
  let p = request_exn "reference round" eng (all_reqs ()) in
  Engine.close eng;
  p

let recover_and_round tag jpath spath =
  let eng = create_session ~recover:true jpath spath in
  let status = (Engine.stats eng).Engine.snapshot in
  let p = request_exn tag eng (all_reqs ()) in
  let stats = Engine.stats eng in
  Engine.close eng;
  (status, p, stats)

let test_snapshot_requires_journal () =
  match
    Engine.create ~domains:1 ~snapshot:"/tmp/never-written.snap"
      (tri_db ()) (tri_queries ())
  with
  | exception Invalid_argument _ -> ()
  | eng ->
    Engine.close eng;
    Alcotest.fail "~snapshot without ~journal must be rejected"

(* a session without a shard cache would never write the image its
   recovery looks for *)
let test_snapshot_requires_shard_cache () =
  with_paths (fun jpath spath ->
      match
        Engine.create ~shard_cache:0 ~domains:1 ~journal:jpath ~snapshot:spath
          (tri_db ()) (tri_queries ())
      with
      | exception Invalid_argument _ ->
        Alcotest.(check bool) "no image on disk" false (Sys.file_exists spath)
      | eng ->
        Engine.close eng;
        Alcotest.fail "~snapshot without a shard cache must be rejected")

(* [create] checks its arguments before its first file operation: a
   rejected call on an existing journaled, snapshotted session leaves
   both files byte-identical, with or without [~recover]. [~plan:false]
   (the deleted flat mode) and an algorithm list that is empty or names
   an unregistered algorithm are rejected the same way. *)
let test_rejected_create_touches_nothing () =
  with_paths (fun jpath spath ->
      seed_session jpath spath;
      let journal = Test_resilience.read_whole jpath in
      let image = Test_resilience.read_whole spath in
      List.iter
        (fun (tag, create) ->
          List.iter
            (fun recover ->
              let tag = Printf.sprintf "%s, recover %b" tag recover in
              match create ~recover with
              | exception Invalid_argument _ ->
                Alcotest.(check bool) (tag ^ ": journal byte-identical") true
                  (String.equal journal (Test_resilience.read_whole jpath));
                Alcotest.(check bool) (tag ^ ": snapshot byte-identical") true
                  (String.equal image (Test_resilience.read_whole spath))
              | eng ->
                Engine.close eng;
                Alcotest.fail (tag ^ ": must be rejected"))
            [ false; true ])
        [
          ( "~plan:false",
            fun ~recover ->
              Engine.create ~plan:false ~domains:1 ~journal:jpath
                ~snapshot:spath ~recover (tri_db ()) (tri_queries ()) );
          ( "~segment_bytes:0",
            fun ~recover ->
              Engine.create ~domains:1 ~journal:jpath ~snapshot:spath
                ~segment_bytes:0 ~recover (tri_db ()) (tri_queries ()) );
          ( "~algorithms:[\"dp\"]",
            fun ~recover ->
              Engine.create ~domains:1 ~journal:jpath ~snapshot:spath
                ~algorithms:[ "dp" ] ~recover (tri_db ()) (tri_queries ()) );
          ( "~algorithms:[]",
            fun ~recover ->
              Engine.create ~domains:1 ~journal:jpath ~snapshot:spath
                ~algorithms:[] ~recover (tri_db ()) (tri_queries ()) );
        ])

(* a [create] that raises leaks no domain: rejected arguments fail
   before the pool spawns, and a recovery that raises shuts its pool
   down. Counted as the process's OS threads where [/proc/self/task]
   exists. *)
let test_failed_create_leaks_no_domain () =
  let task = "/proc/self/task" in
  if Sys.file_exists task then
    with_paths (fun jpath _ ->
        let threads () = Array.length (Sys.readdir task) in
        (* a joined domain's threads exit asynchronously: read the count
           once it has held still for 50 ms (2 s at most) *)
        let settled () =
          let rec go last stable tries =
            if stable >= 5 || tries = 0 then last
            else begin
              Unix.sleepf 0.01;
              let n = threads () in
              go n (if n = last then stable + 1 else 0) (tries - 1)
            end
          in
          go (threads ()) 0 200
        in
        let create ?segment_bytes ~recover () =
          Engine.create ~domains:2 ~journal:jpath ?segment_bytes ~recover
            (tri_db ()) (tri_queries ())
        in
        Engine.close (create ~recover:false ());
        let before = settled () in
        for _ = 1 to 3 do
          match create ~segment_bytes:0 ~recover:false () with
          | exception Invalid_argument _ -> ()
          | eng ->
            Engine.close eng;
            Alcotest.fail "~segment_bytes:0 must be rejected"
        done;
        (* a checksum failure with a record after it: interior corruption *)
        let oc = open_out_bin jpath in
        output_string oc
          (Test_resilience.magic
          ^ Test_resilience.frame ~crc:42 "D"
          ^ Test_resilience.frame "D");
        close_out oc;
        for _ = 1 to 2 do
          match create ~recover:true () with
          | exception Engine.Journal.Error _ -> ()
          | eng ->
            Engine.close eng;
            Alcotest.fail "an interior-corrupt journal must raise"
        done;
        Alcotest.(check int) "OS threads unchanged" before (settled ()))

let test_fresh_session_clears_snapshot () =
  with_paths (fun jpath spath ->
      seed_session jpath spath;
      Alcotest.(check bool) "seed left a snapshot" true (Sys.file_exists spath);
      (* a non-recovering session starts from scratch: stale journal and
         snapshot are both discarded *)
      let eng = create_session jpath spath in
      Alcotest.(check bool) "fresh session discards the snapshot" false
        (Sys.file_exists spath);
      (match (Engine.stats eng).Engine.snapshot with
      | Engine.Cold -> ()
      | s ->
        Alcotest.fail
          (Format.asprintf "expected Cold, got %a" Engine.pp_snapshot_status s));
      Engine.close eng)

(* the acceptance shape: recovery installs the snapshot, and the first
   post-recovery round splices the two clean shards instead of
   re-solving the world *)
let test_recover_warm () =
  with_paths (fun jpath spath ->
      seed_session jpath spath;
      let refp = reference_round () in
      let status, p, stats = recover_and_round "first warm round" jpath spath in
      (match status with
      | Engine.Warm { entries; dropped } ->
        Alcotest.(check int) "all three entries re-warmed" 3 entries;
        Alcotest.(check int) "nothing dropped" 0 dropped
      | s ->
        Alcotest.fail
          (Format.asprintf "expected Warm, got %a" Engine.pp_snapshot_status s));
      Alcotest.(check int) "three shards" 3 (List.length p.Engine.shards);
      Alcotest.(check int) "the two clean shards splice" 2
        p.Engine.shards_cached;
      Alcotest.(check bool) "resolved strictly less than solved" true
        (stats.Engine.shards_resolved < stats.Engine.shards_solved);
      Alcotest.(check bool) "cache hits counted" true
        (stats.Engine.shard_cache_hits > 0);
      check_solutions_equal "warm recovery ≡ uninterrupted" p.Engine.solutions
        refp.Engine.solutions;
      check_decisions_equal "warm recovery decisions" p.Engine.shards
        refp.Engine.shards)

(* every damage shape: the typed warning lands in stats, the cache goes
   cold, and the answers never change *)
let test_recover_degraded () =
  let refp = reference_round () in
  let check_cold tag p =
    Alcotest.(check int) (tag ^ ": cold cache, nothing splices") 0
      p.Engine.shards_cached;
    check_solutions_equal (tag ^ " ≡ uninterrupted") p.Engine.solutions
      refp.Engine.solutions;
    check_decisions_equal (tag ^ " decisions") p.Engine.shards
      refp.Engine.shards
  in
  (* missing snapshot *)
  with_paths (fun jpath spath ->
      seed_session jpath spath;
      S.remove spath;
      let status, p, _ = recover_and_round "missing" jpath spath in
      (match status with
      | Engine.Degraded S.Missing -> ()
      | s ->
        Alcotest.fail
          (Format.asprintf "expected Degraded Missing, got %a"
             Engine.pp_snapshot_status s));
      check_cold "missing" p);
  (* corrupted header *)
  with_paths (fun jpath spath ->
      seed_session jpath spath;
      Test_resilience.flip_byte spath 20;
      let status, p, _ = recover_and_round "corrupt" jpath spath in
      (match status with
      | Engine.Degraded (S.Corrupt _) -> ()
      | s ->
        Alcotest.fail
          (Format.asprintf "expected Degraded Corrupt, got %a"
             Engine.pp_snapshot_status s));
      check_cold "corrupt" p);
  (* a future version, v5, v4, v3 and v2 *)
  List.iter
    (fun (c, v) ->
      with_paths (fun jpath spath ->
          seed_session jpath spath;
          write_whole spath
            (set_header_version (Test_resilience.read_whole spath) c);
          let status, p, _ = recover_and_round "version" jpath spath in
          (match status with
          | Engine.Degraded (S.Version_mismatch v') when v' = v -> ()
          | s ->
            Alcotest.fail
              (Format.asprintf "expected Degraded (Version_mismatch %d), got %a"
                 v Engine.pp_snapshot_status s));
          check_cold (Printf.sprintf "version %d" v) p))
    [ ('9', 9); ('5', 5); ('4', 4); ('3', 3); ('2', 2) ];
  (* stale coordinates: the journal the snapshot describes is gone *)
  with_paths (fun jpath spath ->
      seed_session jpath spath;
      Engine.Journal.remove jpath;
      let status, p, _ = recover_and_round "stale" jpath spath in
      (match status with
      | Engine.Degraded S.Stale -> ()
      | s ->
        Alcotest.fail
          (Format.asprintf "expected Degraded Stale, got %a"
             Engine.pp_snapshot_status s));
      (* the replayed state is the baseline here, so compare against a
         cold baseline session rather than [refp] *)
      Alcotest.(check int) "stale: cold cache" 0 p.Engine.shards_cached;
      let eng = Engine.create ~domains:1 (tri_db ()) (tri_queries ()) in
      let base = request_exn "baseline" eng (all_reqs ()) in
      Engine.close eng;
      check_solutions_equal "stale ≡ cold baseline" p.Engine.solutions
        base.Engine.solutions);
  (* one damaged entry: partial warmth, identical answers *)
  with_paths (fun jpath spath ->
      seed_session jpath spath;
      Test_resilience.flip_byte spath
        (first_entry_offset (Test_resilience.read_whole spath));
      let status, p, _ = recover_and_round "partial" jpath spath in
      (match status with
      | Engine.Warm { entries = 2; dropped = 1 } -> ()
      | s ->
        Alcotest.fail
          (Format.asprintf "expected Warm {entries = 2; dropped = 1}, got %a"
             Engine.pp_snapshot_status s));
      Alcotest.(check bool) "surviving clean entries still splice" true
        (p.Engine.shards_cached >= 1);
      check_solutions_equal "partial warmth ≡ uninterrupted"
        p.Engine.solutions refp.Engine.solutions;
      check_decisions_equal "partial warmth decisions" p.Engine.shards
        refp.Engine.shards)

(* killed exactly at a checkpoint, the restored cache counters are the
   crashed session's counters — the stats surface reports the same
   lifetime hit count the uninterrupted twin reports *)
let test_checkpoint_boundary_counters () =
  with_paths (fun jpath spath ->
      let twin = Engine.create ~domains:1 (tri_db ()) (tri_queries ()) in
      let eng = create_session jpath spath in
      List.iter
        (fun e ->
          ignore (request_exn "round 1" e (all_reqs ()));
          Engine.insert e (st "T1" [ "D"; "J2" ]);
          ignore (request_exn "round 2" e (all_reqs ())))
        [ twin; eng ];
      Engine.checkpoint eng;
      Engine.close eng (* the kill: nothing after the checkpoint *);
      let eng' = create_session ~recover:true jpath spath in
      (* 4 entries: one per component from round 1, plus round 2's entry
         for J2's post-insert fingerprint (the stale one ages out) *)
      (match (Engine.stats eng').Engine.snapshot with
      | Engine.Warm { entries = 4; dropped = 0 } -> ()
      | s ->
        Alcotest.fail
          (Format.asprintf "expected Warm {entries = 4; dropped = 0}, got %a"
             Engine.pp_snapshot_status s));
      let p' = request_exn "post-recovery round" eng' (all_reqs ()) in
      let p = request_exn "twin round" twin (all_reqs ()) in
      Alcotest.(check int) "both rounds splice everything"
        p.Engine.shards_cached p'.Engine.shards_cached;
      Alcotest.(check int) "lifetime hit counters bit-identical"
        (Engine.stats twin).Engine.shard_cache_hits
        (Engine.stats eng').Engine.shard_cache_hits;
      check_solutions_equal "checkpoint boundary ≡ twin" p'.Engine.solutions
        p.Engine.solutions;
      check_decisions_equal "checkpoint boundary decisions" p'.Engine.shards
        p.Engine.shards;
      Engine.close eng';
      Engine.close twin)

(* snapshot-covered sealed segments are reclaimed at recovery: the fast
   path replays only the tail, deletes the covered segment files, and
   the pruned journal still recovers a second time bit-identically *)
let test_sealed_segment_reclamation () =
  with_paths (fun jpath spath ->
      let seg_count () =
        let dir = Filename.dirname jpath in
        let prefix = Filename.basename jpath ^ ".seg-" in
        Array.fold_left
          (fun n f ->
            if String.length f >= String.length prefix
               && String.sub f 0 (String.length prefix) = prefix
            then n + 1
            else n)
          0 (Sys.readdir dir)
      in
      (* tiny segments force rotation on nearly every append *)
      let mk recover =
        Engine.create ~domains:1 ~journal:jpath ~snapshot:spath
          ~snapshot_every:1 ~segment_bytes:32 ~recover (tri_db ())
          (tri_queries ())
      in
      let twin =
        Engine.create ~domains:1 (tri_db ()) (tri_queries ())
      in
      let drive e =
        ignore (request_exn "seed round" e (all_reqs ()));
        Engine.insert e (st "T1" [ "D"; "J2" ]);
        Engine.insert e (st "T1" [ "E"; "J3" ]);
        Engine.delete e (R.Stuple.Set.singleton (st "T1" [ "D"; "J2" ]))
      in
      let eng = mk false in
      drive eng;
      drive twin;
      Engine.close eng;
      let before = seg_count () in
      Alcotest.(check bool) "the tiny segments actually rotated" true
        (before >= 2);
      let eng' = mk true in
      (match (Engine.stats eng').Engine.snapshot with
      | Engine.Warm _ -> ()
      | s ->
        Alcotest.fail
          (Format.asprintf "expected Warm, got %a" Engine.pp_snapshot_status s));
      Alcotest.(check bool)
        (Printf.sprintf "covered segments reclaimed (%d -> %d)" before
           (seg_count ()))
        true
        (seg_count () < before);
      let p' = request_exn "post-reclaim round" eng' (all_reqs ()) in
      let p = request_exn "twin round" twin (all_reqs ()) in
      check_solutions_equal "reclaimed recovery ≡ uninterrupted"
        p'.Engine.solutions p.Engine.solutions;
      check_decisions_equal "reclaimed recovery decisions" p'.Engine.shards
        p.Engine.shards;
      Alcotest.(check bool) "database identical" true
        (R.Instance.equal (Engine.db eng') (Engine.db twin));
      Engine.close eng';
      (* the pruned journal must stand on its own: recover again *)
      let eng'' = mk true in
      let p'' = request_exn "second recovery round" eng'' (all_reqs ()) in
      check_solutions_equal "second recovery ≡ uninterrupted"
        p''.Engine.solutions p.Engine.solutions;
      Alcotest.(check bool) "database still identical" true
        (R.Instance.equal (Engine.db eng'') (Engine.db twin));
      Engine.close eng'';
      Engine.close twin)

(* a checkpoint whose snapshot write fails must leave the session
   journaling: the journal is untouched, so the writer reopens on it at
   the old position and the next commit lands in it *)
let test_failed_checkpoint_keeps_journaling () =
  with_paths (fun jpath spath ->
      Fun.protect
        ~finally:(fun () -> D.Failpoint.clear "snapshot.write")
        (fun () ->
          let p = Workload.Author_journal.scenario_q4 () in
          let mk recover =
            Engine.create ~domains:1 ~journal:jpath ~snapshot:spath
              ~snapshot_every:1 ~recover p.D.Problem.db p.D.Problem.queries
          in
          let eng = mk false in
          Engine.delete eng (R.Stuple.Set.singleton (st "T1" [ "Joe"; "TKDE" ]));
          D.Failpoint.set "snapshot.write" D.Failpoint.Raise;
          Alcotest.check_raises "the checkpoint's snapshot write fails"
            (D.Failpoint.Injected "snapshot.write") (fun () ->
              Engine.checkpoint eng);
          D.Failpoint.clear "snapshot.write";
          Engine.delete eng (R.Stuple.Set.singleton (st "T1" [ "Tom"; "TKDE" ]));
          Alcotest.(check int) "live database" 5 (R.Instance.size (Engine.db eng));
          let s, _ = load_snapshot_exn "after the failed checkpoint" spath in
          Alcotest.(check int) "the snapshot follows the journal position" 2
            s.S.position;
          Engine.close eng;
          let eng' = mk true in
          Alcotest.(check int) "recovered database" 5
            (R.Instance.size (Engine.db eng'));
          Alcotest.(check bool) "recovered ≡ live" true
            (R.Instance.equal (Engine.db eng) (Engine.db eng'));
          Engine.close eng'))

(* after a fast recovery the write policy counts from the installed
   image, not from the journal tip: with the image at record 4 of 6,
   the next one lands at record 8 *)
let test_policy_counts_from_image () =
  with_paths (fun jpath spath ->
      let mk recover =
        Engine.create ~domains:1 ~journal:jpath ~snapshot:spath
          ~snapshot_every:4 ~recover (tri_db ()) (tri_queries ())
      in
      let eng = mk false in
      ignore (request_exn "seed round" eng (all_reqs ()));
      List.iter
        (fun a -> Engine.insert eng (st "T1" [ a; "J2" ]))
        [ "D"; "E"; "F"; "G"; "H"; "I" ];
      let s, _ = load_snapshot_exn "before the kill" spath in
      Alcotest.(check int) "image at record 4" 4 s.S.position;
      Engine.close eng;
      let eng = mk true in
      let stats = Engine.stats eng in
      (match stats.Engine.snapshot with
      | Engine.Warm _ -> ()
      | s ->
        Alcotest.fail
          (Format.asprintf "expected Warm, got %a" Engine.pp_snapshot_status s));
      Alcotest.(check int) "six records recovered" 6
        stats.Engine.recovered_records;
      Engine.insert eng (st "T1" [ "J"; "J2" ]);
      Engine.insert eng (st "T1" [ "K"; "J2" ]);
      let s, _ = load_snapshot_exn "two records later" spath in
      Alcotest.(check int) "the next image lands 4 past the last" 8
        s.S.position;
      Engine.close eng)

(* killed between a checkpoint's snapshot rename and its journal mark
   (the rewrite dies before its first byte): the image names a
   generation that never landed, so recovery replays the old journal
   cold — same database, same answers as a twin that never crashed *)
let test_checkpoint_crash_window () =
  with_paths (fun jpath spath ->
      Fun.protect
        ~finally:(fun () -> D.Failpoint.clear "journal.rewrite")
        (fun () ->
          let twin =
            Engine.create ~domains:1 (tri_db ()) (tri_queries ())
          in
          let eng = create_session jpath spath in
          List.iter
            (fun e ->
              ignore (request_exn "round 1" e (all_reqs ()));
              Engine.insert e (st "T1" [ "D"; "J2" ]);
              Engine.insert e (st "T1" [ "E"; "J3" ]))
            [ twin; eng ];
          D.Failpoint.set "journal.rewrite" D.Failpoint.Raise;
          Alcotest.check_raises "the kill lands after the rename"
            (D.Failpoint.Injected "journal.rewrite") (fun () ->
              Engine.checkpoint eng);
          D.Failpoint.clear "journal.rewrite";
          Engine.close eng;
          let eng' = create_session ~recover:true jpath spath in
          (match (Engine.stats eng').Engine.snapshot with
          | Engine.Degraded S.Stale -> ()
          | s ->
            Alcotest.fail
              (Format.asprintf "expected Degraded Stale, got %a"
                 Engine.pp_snapshot_status s));
          Alcotest.(check bool) "database ≡ twin" true
            (R.Instance.equal (Engine.db eng') (Engine.db twin));
          let p' = request_exn "first recovered round" eng' (all_reqs ()) in
          let p = request_exn "twin round" twin (all_reqs ()) in
          check_solutions_equal "checkpoint window ≡ twin" p'.Engine.solutions
            p.Engine.solutions;
          check_decisions_equal "checkpoint window decisions" p'.Engine.shards
            p.Engine.shards;
          Engine.close eng';
          Engine.close twin))

(* a commit that changes nothing — deleting a tuple already gone,
   inserting one already present, applying a plan whose deletions are
   all gone — appends no journal record and counts no apply, so it
   never advances the snapshot policy either *)
let test_noop_commits_not_journaled () =
  with_paths (fun jpath spath ->
      let p = Workload.Author_journal.scenario_q4 () in
      let eng =
        Engine.create ~domains:1 ~journal:jpath ~snapshot:spath
          ~snapshot_every:2 p.D.Problem.db p.D.Problem.queries
      in
      let records () =
        match Engine.Journal.load jpath with
        | Ok rs -> List.length rs
        | Error e ->
          Alcotest.fail (Format.asprintf "%a" Engine.Journal.pp_error e)
      in
      let absent = R.Stuple.Set.singleton (st "T1" [ "Nobody"; "TKDE" ]) in
      for _ = 1 to 3 do
        Engine.delete eng absent
      done;
      Engine.insert eng (st "T1" [ "Joe"; "TKDE" ]);
      Alcotest.(check int) "no journal record" 0 (records ());
      Alcotest.(check int) "no apply counted" 0 (Engine.stats eng).Engine.applies;
      Alcotest.(check bool) "no snapshot written" false (Sys.file_exists spath);
      (* the same plan twice: the second apply finds its deletion gone *)
      let plan =
        request_exn "solve" eng
          [ D.Delta_request.make ~view:"Q4" [ R.Tuple.strs [ "John"; "TKDE"; "XML" ] ] ]
      in
      ignore (Engine.apply eng plan);
      ignore (Engine.apply eng plan);
      Alcotest.(check int) "one record, for the real commit" 1 (records ());
      Alcotest.(check int) "one apply counted" 1 (Engine.stats eng).Engine.applies;
      Engine.close eng)

(* an image stamped with the pre-digest coordinate (the rank-stream
   [Fingerprint.arena]) must never install: it recovers cold, once *)
let test_old_coordinate_recovers_stale () =
  with_paths (fun jpath spath ->
      let eng = create_session jpath spath in
      ignore (request_exn "seed round" eng (all_reqs ()));
      Engine.insert eng (st "T1" [ "D"; "J2" ]);
      let old_fp = D.Fingerprint.arena (snd (Engine.index eng)) in
      Engine.close eng;
      let s, _ = load_snapshot_exn "seeded image" spath in
      S.write spath { s with S.arena_fp = old_fp };
      let status, p, _ = recover_and_round "old coordinate" jpath spath in
      (match status with
      | Engine.Degraded S.Stale -> ()
      | s ->
        Alcotest.fail
          (Format.asprintf "expected Degraded Stale, got %a"
             Engine.pp_snapshot_status s));
      Alcotest.(check int) "cold: nothing splices" 0 p.Engine.shards_cached;
      let refp = reference_round () in
      check_solutions_equal "stale image ≡ uninterrupted" p.Engine.solutions
        refp.Engine.solutions)

(* a journal tail that cancels recovers as its net delta: five insert /
   delete pairs of T1(D, J2) fold away, so J2's component never dirties
   and only the net insert T1(E, J3) patches the index — the first
   round re-solves J3 alone, where a record-by-record replay would have
   dirtied J2 too *)
let test_cancelling_tail_folds () =
  with_paths (fun jpath spath ->
      let seeded = create_session jpath spath in
      ignore (request_exn "seed round" seeded (all_reqs ()));
      Engine.checkpoint seeded;
      Engine.close seeded;
      let twin = Engine.create ~domains:1 (tri_db ()) (tri_queries ()) in
      ignore (request_exn "twin seed round" twin (all_reqs ()));
      let journal_only () =
        Engine.create ~domains:1 ~journal:jpath ~recover:true
          (tri_db ()) (tri_queries ())
      in
      let tail = journal_only () in
      List.iter
        (fun e ->
          for _ = 1 to 5 do
            Engine.insert e (st "T1" [ "D"; "J2" ]);
            Engine.delete e (R.Stuple.Set.singleton (st "T1" [ "D"; "J2" ]))
          done;
          Engine.insert e (st "T1" [ "E"; "J3" ]))
        [ tail; twin ];
      Engine.close tail;
      let eng = create_session ~recover:true jpath spath in
      let stats = Engine.stats eng in
      (match stats.Engine.snapshot with
      | Engine.Warm _ -> ()
      | s ->
        Alcotest.fail
          (Format.asprintf "expected Warm, got %a" Engine.pp_snapshot_status s));
      Alcotest.(check int) "checkpoint record + 11 tail records" 12
        stats.Engine.recovered_records;
      Alcotest.(check int) "the pairs cancel: no delete patches" 0
        stats.Engine.patches;
      Alcotest.(check int) "only the net insert patches" 1
        stats.Engine.tuples_inserted;
      let p = request_exn "first recovered round" eng (all_reqs ()) in
      let refp = request_exn "twin round" twin (all_reqs ()) in
      Alcotest.(check int) "J1 and J2 splice, J3 re-solves" 2
        p.Engine.shards_cached;
      check_solutions_equal "folded recovery ≡ uninterrupted" p.Engine.solutions
        refp.Engine.solutions;
      check_decisions_equal "folded recovery decisions" p.Engine.shards
        refp.Engine.shards;
      Engine.close eng;
      Engine.close twin;
      let cold = journal_only () in
      let stats = Engine.stats cold in
      Alcotest.(check int) "journal-only: no delete patches" 0
        stats.Engine.patches;
      Alcotest.(check int) "journal-only: one insert patched" 1
        stats.Engine.tuples_inserted;
      Alcotest.(check int) "journal-only: every deleting record applies" 5
        stats.Engine.applies;
      Engine.close cold)

(* Recovery after a history in which the live session's stable ids
   drifted from the canonical labels a fresh replay assigns: splitting
   and re-merging the ICDE chain gives it a fresh id, and the snapshot
   taken while it is dirty must carry it as its canonical label. The
   re-merged chain's content — and so its fingerprint — is the one round
   1 cached, so only its dirty bit keeps it from splicing: the first
   recovered round's per-shard [cached] flags pin the translation. The
   tail inserts a tuple that sorts first, shifting every canonical label
   after the install. *)
let test_diverged_ids_rewarm () =
  with_paths (fun jpath spath ->
      let db = Test_compindex.split_db and queries = Test_compindex.split_queries in
      let both =
        Test_compindex.q4 [ [ "Ann"; "J1"; "XML" ]; [ "Bob"; "J2"; "CUBE" ] ]
      in
      let vldb_only = Test_compindex.q4 [ [ "Bob"; "J2"; "CUBE" ] ] in
      let history e =
        ignore (request_exn "both chains" e both);
        Engine.delete e (R.Stuple.Set.singleton (st "T4" [ "ICDE"; "Rome" ]));
        Engine.insert e (st "T4" [ "ICDE"; "Rome" ]);
        (* the VLDB chain solves again; the re-merged ICDE chain stays
           dirty *)
        ignore (request_exn "VLDB again" e vldb_only)
      in
      let seeded =
        Engine.create ~domains:1 ~journal:jpath ~snapshot:spath
          (db ()) (queries ())
      in
      history seeded;
      Engine.checkpoint seeded;
      Engine.close seeded;
      let twin = Engine.create ~domains:1 (db ()) (queries ()) in
      history twin;
      let tail =
        Engine.create ~domains:1 ~journal:jpath ~recover:true (db ())
          (queries ())
      in
      List.iter (fun e -> Engine.insert e (st "T1" [ "Aaa"; "J9" ])) [ tail; twin ];
      Engine.close tail;
      let eng =
        Engine.create ~domains:1 ~journal:jpath ~snapshot:spath
          ~recover:true (db ()) (queries ())
      in
      (match (Engine.stats eng).Engine.snapshot with
      | Engine.Warm _ -> ()
      | s ->
        Alcotest.fail
          (Format.asprintf "expected Warm, got %a" Engine.pp_snapshot_status s));
      let p = request_exn "first recovered round" eng both in
      let refp = request_exn "twin round" twin both in
      Alcotest.(check (list bool)) "per-shard cached flags ≡ twin"
        (List.map (fun (d : D.Planner.shard_decision) -> d.D.Planner.cached) refp.Engine.shards)
        (List.map (fun (d : D.Planner.shard_decision) -> d.D.Planner.cached) p.Engine.shards);
      Alcotest.(check int) "shards_cached ≡ twin" refp.Engine.shards_cached
        p.Engine.shards_cached;
      Alcotest.(check int) "the VLDB chain splices, the ICDE chain re-solves" 1
        p.Engine.shards_cached;
      check_solutions_equal "diverged ids ≡ uninterrupted" p.Engine.solutions
        refp.Engine.solutions;
      check_decisions_equal "diverged ids decisions" p.Engine.shards
        refp.Engine.shards;
      Engine.close eng;
      Engine.close twin)

(* journals written before no-op commits stopped being journaled hold
   records that changed nothing when they ran; the fold must skip them
   the way record-by-record replay did, not cancel them against their
   neighbours *)
let test_noop_records_fold () =
  with_paths (fun jpath _ ->
      let absent = st "T1" [ "D"; "J2" ] and present = st "T1" [ "A"; "J1" ] in
      let w = Engine.Journal.open_writer jpath in
      List.iter (Engine.Journal.append w)
        [
          Engine.Journal.Delete (R.Stuple.Set.singleton absent);
          Engine.Journal.Insert absent;
          Engine.Journal.Insert present;
          Engine.Journal.Delete (R.Stuple.Set.singleton present);
        ];
      Engine.Journal.close_writer w;
      let eng =
        Engine.create ~domains:1 ~journal:jpath ~recover:true
          (tri_db ()) (tri_queries ())
      in
      let db = Engine.db eng and stats = Engine.stats eng in
      Engine.close eng;
      Alcotest.(check int) "four records replayed" 4
        stats.Engine.recovered_records;
      Alcotest.(check bool) "a no-op delete then an insert: present" true
        (R.Instance.mem db absent);
      Alcotest.(check bool) "a no-op insert then a delete: absent" false
        (R.Instance.mem db present);
      Alcotest.(check int) "only the delete that deleted applies" 1
        stats.Engine.applies)

(* two triangles that classify Approximate under [exact_threshold = 0],
   and a single-atom view whose inserts commit without touching them *)
let tri_pair_db () =
  R.Serial.instance_of_string
    {|rel RA(X*, Z*)
RA(x1, z1)
RA(x2, z2)
rel RB(X*, Y*)
RB(x1, y1)
RB(x2, y2)
rel RC(Y*, Z*)
RC(y1, z1)
RC(y2, z2)
rel RU(U*, V*)
RU(u0, v0)|}

let tri_pair_queries () =
  Cq.Parser.queries_of_string
    {|Q1(X, Z, Y) :- RA(X, Z), RB(X, Y)
Q2(X, Y, Z) :- RB(X, Y), RC(Y, Z)
Q3(Y, Z, X) :- RC(Y, Z), RA(X, Z)
QU(U, V) :- RU(U, V)|}

(* Images around capacity evictions, each ≡ the encoder without the
   memo. The cache holds one entry: the first round solves both
   triangles and the second one's entry evicts the first's, so the
   image holds one entry, not two. The next round re-solves the evicted
   triangle, whose entry evicts the other. Recovered from the image
   after that, the session splices the one triangle and re-solves the
   other, as its uninterrupted twin does. *)
let test_eviction_images () =
  with_paths (fun jpath spath ->
      let mk ?journal ?snapshot recover =
        Engine.create ~domains:1 ~exact_threshold:0 ~shard_cache:1 ?journal
          ?snapshot ~snapshot_every:1 ~recover (tri_pair_db ())
          (tri_pair_queries ())
      in
      let eng = mk ~journal:jpath ~snapshot:spath false in
      let twin = mk false in
      let q1 ks =
        [
          D.Delta_request.make ~view:"Q1"
            (List.map (fun k -> R.Tuple.strs [ "x" ^ k; "z" ^ k; "y" ^ k ]) ks);
        ]
      in
      let round tag ks =
        ignore (request_exn tag twin (q1 ks));
        request_exn tag eng (q1 ks)
      in
      let grow u =
        List.iter (fun e -> Engine.insert e (st "RU" [ u; u ])) [ eng; twin ];
        check_reencodes ("image after inserting " ^ u) spath
      in
      let image_fps tag =
        List.map fst (fst (load_snapshot_exn tag spath)).S.entries
      in
      let p = round "warm" [ "1"; "2" ] in
      Alcotest.(check (list bool)) "both triangles approximate" [ true; true ]
        (List.map
           (fun (d : D.Planner.shard_decision) ->
             d.D.Planner.classification = D.Planner.Approximate)
           p.Engine.shards);
      grow "u1";
      let before = image_fps "after the warm round" in
      Alcotest.(check int) "the eviction shrank the image" 1 (List.length before);
      let p = round "evicted" [ "1" ] in
      Alcotest.(check int) "the evicted entry re-solves" 0 p.Engine.shards_cached;
      grow "u2";
      let after = image_fps "after the re-solve" in
      Alcotest.(check bool) "the re-solve evicted the other entry" true
        (List.length after = 1
        && not (D.Fingerprint.equal (List.hd before) (List.hd after)));
      Engine.close eng;
      let eng = mk ~journal:jpath ~snapshot:spath true in
      (match (Engine.stats eng).Engine.snapshot with
      | Engine.Warm { entries; _ } ->
        Alcotest.(check int) "one entry re-warms" 1 entries
      | s ->
        Alcotest.fail
          (Format.asprintf "expected Warm, got %a" Engine.pp_snapshot_status s));
      List.iter
        (fun (k, cached) ->
          let tag = "triangle " ^ k in
          let p = request_exn ("recovered " ^ tag) eng (q1 [ k ]) in
          let refp = request_exn ("twin " ^ tag) twin (q1 [ k ]) in
          Alcotest.(check int) (tag ^ ": spliced as expected") cached
            p.Engine.shards_cached;
          check_decisions_equal (tag ^ ": recovered ≡ uninterrupted")
            p.Engine.shards refp.Engine.shards;
          check_solutions_equal (tag ^ ": solutions") p.Engine.solutions
            refp.Engine.solutions)
        [ ("1", 1); ("2", 0) ];
      Engine.close eng;
      Engine.close twin)

(* ---- the per-delta coordinates: digest and baseline invariants ---- *)

(* the tri instance's tuples plus authors and topics it never held: an
   insert either resurrects a tombstoned slot (a deleted tuple coming
   back) or takes the merge path (a tuple the arena never held) *)
let coord_pool =
  Array.of_list
    (List.concat_map
       (fun j ->
         [
           st "T1" [ "A"; j ];
           st "T1" [ "B"; j ];
           st "T1" [ "C"; j ];
           R.Stuple.make "T2"
             (R.Tuple.of_list [ R.Value.str j; R.Value.str "X"; R.Value.int 1 ]);
           R.Stuple.make "T2"
             (R.Tuple.of_list [ R.Value.str j; R.Value.str "Y"; R.Value.int 2 ]);
         ])
       [ "J1"; "J2"; "J3" ])

type coord_op =
  | Commit of int option * int option  (** delete / insert a pool tuple *)
  | Propose
  | Compact
  | Checkpoint
  | Kill of bool
      (** close and recover; [false] damages the image's baseline first,
          forcing a cold replay *)

let pp_coord_op = function
  | Commit (d, i) ->
    let f = function None -> "-" | Some k -> string_of_int k in
    Printf.sprintf "Commit(%s,%s)" (f d) (f i)
  | Propose -> "Propose"
  | Compact -> "Compact"
  | Checkpoint -> "Checkpoint"
  | Kill fast -> if fast then "Kill(fast)" else "Kill(damaged)"

let gen_coord_op =
  let open QCheck2.Gen in
  let k = int_bound (Array.length coord_pool - 1) in
  frequency
    [
      (8, map2 (fun d i -> Commit (d, i)) (option k) (option k));
      (2, pure Propose);
      (1, pure Compact);
      (1, pure Checkpoint);
      (2, map (fun b -> Kill b) bool);
    ]

let baseline_of db =
  let base = tri_db () in
  ( R.Instance.fold
      (fun st acc -> if R.Instance.mem db st then acc else R.Stuple.Set.add st acc)
      base R.Stuple.Set.empty,
    R.Instance.fold
      (fun st acc -> if R.Instance.mem base st then acc else R.Stuple.Set.add st acc)
      db R.Stuple.Set.empty )

let baseline_equal (g, a) (g', a') = R.Stuple.Set.equal g g' && R.Stuple.Set.equal a a'

(* Drive a journaled, snapshotted session through [ops] and, after every
   step, hold the snapshot on disk to the session's coordinates as
   recomputed from scratch: the digest over the live provenance and the
   base-to-current diff. The test models the engine's write policy — a
   full image at every checkpoint and once [every] records accumulate
   past the last one, nothing in between — so it knows when the image
   describes the current state exactly: right after a full write, until
   the next commit. Otherwise the image must match the state at its own
   recorded position. A fast recovery counts the policy from the image's
   position, a cold one from 0. [Kill false] flips a bit of the image's
   baseline first: that must recover cold, as [Degraded (Corrupt _)],
   with the same database. With [segment_bytes] the journal rotates, and
   a fast recovery over sealed segments the image covers reclaims them
   with a checkpoint: a new generation and a full image at position 1,
   whose entries are the frames the load seeded. Every full image must
   equal a memo-free write of its own load. *)
let check_coordinates (every, segment_bytes, ops) =
  with_paths (fun jpath spath ->
      let mk recover =
        Engine.create ~domains:1 ~journal:jpath ~snapshot:spath
          ~snapshot_every:every ?segment_bytes ~recover (tri_db ()) (tri_queries ())
      in
      let eng = ref (mk false) in
      (* [pos]: journal records; [last]: where the write policy counts
         from; [image]: the on-disk image's position; [damaged]: its
         baseline was flipped after it was written *)
      let pos = ref 0 and last = ref 0 and image = ref None in
      let damaged = ref false and synced = ref false in
      let hist = Hashtbl.create 16 in
      let current () =
        ( D.Fingerprint.digest (fst (Engine.index !eng)),
          baseline_of (Engine.db !eng) )
      in
      let full_write tag =
        image := Some !pos;
        last := !pos;
        damaged := false;
        synced := true;
        check_reencodes tag spath
      in
      let checkpointed tag =
        pos := 1;
        Hashtbl.reset hist;
        Hashtbl.replace hist 1 (current ());
        full_write tag
      in
      let check tag =
        match (S.load spath, !image) with
        | Error S.Missing, None -> ()
        | Error (S.Corrupt _), Some _ when !damaged -> ()
        | Ok (s, _), Some p when not !damaged ->
          Alcotest.(check int) (tag ^ ": position") p s.S.position;
          let digest, baseline =
            if !synced then current ()
            else
              match Hashtbl.find_opt hist p with
              | Some c -> c
              | None -> Alcotest.fail (tag ^ ": image at an unknown position")
          in
          let at = if !synced then "from scratch" else "at its position" in
          Alcotest.(check bool) (tag ^ ": arena_fp = digest " ^ at) true
            (D.Fingerprint.equal s.S.arena_fp digest);
          Alcotest.(check bool) (tag ^ ": baseline = diff " ^ at) true
            (baseline_equal s.S.baseline baseline)
        | Ok _, _ -> Alcotest.fail (tag ^ ": an image loaded unexpectedly")
        | Error w, _ ->
          Alcotest.fail (Format.asprintf "%s: load: %a" tag S.pp_warning w)
      in
      List.iteri
        (fun i op ->
          let tag = Printf.sprintf "step %d %s" i (pp_coord_op op) in
          (match op with
          | Commit (d, ins) ->
            let set = function
              | None -> R.Stuple.Set.empty
              | Some k -> R.Stuple.Set.singleton coord_pool.(k)
            in
            let applied =
              Engine.apply_delta !eng (D.Delta.make ~deletes:(set d) ~inserts:(set ins) ())
            in
            if not (D.Delta.is_empty applied) then begin
              incr pos;
              Hashtbl.replace hist !pos (current ());
              if !pos - !last >= every then full_write tag else synced := false
            end
          | Propose -> (
            match R.Tuple.Set.min_elt_opt (Engine.view !eng "Q4") with
            | None -> ()
            | Some t ->
              ignore
                (request_exn tag !eng [ D.Delta_request.make ~view:"Q4" [ t ] ]))
          | Compact -> Engine.compact !eng
          | Checkpoint ->
            Engine.checkpoint !eng;
            checkpointed tag
          | Kill fast ->
            let db = Engine.db !eng in
            Engine.close !eng;
            if (not fast) && !image <> None && not !damaged then begin
              Test_resilience.flip_byte spath
                (baseline_offset (Test_resilience.read_whole spath));
              damaged := true
            end;
            let gen = Engine.Journal.current_gen jpath in
            eng := mk true;
            (match ((Engine.stats !eng).Engine.snapshot, !image) with
            | Engine.Degraded S.Missing, None -> last := 0
            | Engine.Degraded (S.Corrupt _), Some _ when !damaged -> last := 0
            | Engine.Warm _, Some p when not !damaged -> last := p
            | s, _ ->
              Alcotest.fail
                (Format.asprintf "%s: recovered %a" tag Engine.pp_snapshot_status s));
            if Engine.Journal.current_gen jpath <> gen then
              checkpointed (tag ^ " reclaim");
            Alcotest.(check bool) (tag ^ ": recovered database") true
              (R.Instance.equal db (Engine.db !eng)));
          check tag)
        ops;
      Engine.close !eng;
      true)

let prop_coordinates =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:fuzz_count
       ~name:"coordinates: digest and baseline ≡ from scratch"
       ~print:(fun (every, segment_bytes, ops) ->
         Printf.sprintf "every %d, segments %s: %s" every
           (match segment_bytes with None -> "off" | Some n -> string_of_int n)
           (String.concat " " (List.map pp_coord_op ops)))
       QCheck2.Gen.(
         triple (int_range 1 3) (option (pure 32))
           (list_size (int_range 1 30) gen_coord_op))
       check_coordinates)

(* ---- the kill-point fuzz property ---- *)

type op = Round | Ins of string * string | Del of string * string

(* 10 rounds, 7 single-component deltas — inserts and deletes confined
   to one of J1/J2/J3 so clean components stay cacheable throughout *)
let script =
  [
    Round;
    Ins ("D", "J2");
    Round;
    Ins ("E", "J3");
    Round;
    Del ("D", "J2");
    Round;
    Ins ("F", "J1");
    Round;
    Round;
    Del ("E", "J3");
    Round;
    Ins ("G", "J2");
    Round;
    Del ("F", "J1");
    Round;
    Round;
  ]

let run_op eng tag = function
  | Round -> Some (request_exn tag eng (all_reqs ()))
  | Ins (a, j) ->
    Engine.insert eng (st "T1" [ a; j ]);
    None
  | Del (a, j) ->
    Engine.delete eng (R.Stuple.Set.singleton (st "T1" [ a; j ]));
    None

(* the uninterrupted reference: per-round plans, final database, final
   component count — computed once, shared by every fuzz iteration *)
let reference_run =
  lazy
    (let eng =
       Engine.create ~domains:1 (tri_db ()) (tri_queries ())
     in
     let rounds = List.filter_map (fun o -> run_op eng "reference" o) script in
     let db = Engine.db eng in
     let components = (Engine.stats eng).Engine.components in
     Engine.close eng;
     (rounds, db, components))

let rec drop n = function
  | l when n <= 0 -> l
  | [] -> []
  | _ :: tl -> drop (n - 1) tl

(* kill the session at step [k] — either cleanly between steps or with
   a torn journal append at step [k] itself — then recover, finish the
   script, and demand the uninterrupted run's results to the bit *)
let check_kill_point (k, torn) =
  with_paths (fun jpath spath ->
      let ref_rounds, ref_db, ref_components = Lazy.force reference_run in
      let eng = create_session jpath spath in
      let pre_rounds = ref 0 in
      List.iteri
        (fun i o ->
          if i < k then
            match run_op eng "pre-crash" o with
            | Some _ -> incr pre_rounds
            | None -> ())
        script;
      (* a torn append: the in-memory state moved, the journal did not —
         recovery must land on the pre-op state and the op re-runs *)
      (if torn then
         match List.nth script k with
         | Round -> ()
         | (Ins _ | Del _) as o ->
           D.Failpoint.set "journal.append" (D.Failpoint.Crash_after_bytes 3);
           (try ignore (run_op eng "torn op" o)
            with D.Failpoint.Injected _ -> ());
           D.Failpoint.clear "journal.append");
      Engine.close eng;
      let eng' = create_session ~recover:true jpath spath in
      (* never an error; warm from the first image onward *)
      (match (Engine.stats eng').Engine.snapshot with
      | Engine.Warm _ when k >= 2 -> ()
      | Engine.Degraded S.Missing when k < 2 -> ()
      | s ->
        Alcotest.fail
          (Format.asprintf "kill at %d: unexpected snapshot status %a" k
             Engine.pp_snapshot_status s));
      let post_rounds =
        List.filteri (fun i _ -> i >= k) script
        |> List.filter_map (fun o -> run_op eng' "post-recovery" o)
      in
      List.iteri
        (fun i (rp, p) ->
          let tag = Printf.sprintf "kill at %d, round %d" k (!pre_rounds + i) in
          check_solutions_equal (tag ^ " ≡ uninterrupted") p.Engine.solutions
            rp.Engine.solutions;
          check_decisions_equal (tag ^ " decisions") p.Engine.shards
            rp.Engine.shards)
        (List.combine (drop !pre_rounds ref_rounds) post_rounds);
      Alcotest.(check bool) "final database identical" true
        (R.Instance.equal (Engine.db eng') ref_db);
      Alcotest.(check int) "final partition size identical" ref_components
        (Engine.stats eng').Engine.components;
      Engine.close eng';
      true)

let prop_kill_point =
  qcheck ~count:fuzz_count "rewarm: kill + recover + re-warm ≡ uninterrupted"
    QCheck2.Gen.(pair (int_range 1 (List.length script - 1)) bool)
    check_kill_point

let suite =
  [
    Alcotest.test_case "snapshot codec round-trips bit-identically" `Quick
      test_codec_roundtrip;
    Alcotest.test_case "snapshot load: the degradation ladder" `Quick
      test_load_ladder;
    Alcotest.test_case "snapshot failpoints: torn, committed, at-rest" `Quick
      test_snapshot_failpoints;
    Alcotest.test_case "snapshot frame memo ≡ the encoder without it" `Quick
      test_frame_memo;
    Alcotest.test_case "engine: ~snapshot requires ~journal" `Quick
      test_snapshot_requires_journal;
    Alcotest.test_case "engine: ~snapshot requires a shard cache" `Quick
      test_snapshot_requires_shard_cache;
    Alcotest.test_case "engine: a rejected create touches no file" `Quick
      test_rejected_create_touches_nothing;
    Alcotest.test_case "engine: a failed create leaks no domain" `Quick
      test_failed_create_leaks_no_domain;
    Alcotest.test_case "engine: fresh sessions discard stale snapshots" `Quick
      test_fresh_session_clears_snapshot;
    Alcotest.test_case "engine: recovery re-warms the shard cache" `Quick
      test_recover_warm;
    Alcotest.test_case "engine: every damage shape degrades to cold" `Quick
      test_recover_degraded;
    Alcotest.test_case "checkpoint boundary: counters bit-identical" `Quick
      test_checkpoint_boundary_counters;
    Alcotest.test_case "recovery reclaims snapshot-covered segments" `Quick
      test_sealed_segment_reclamation;
    Alcotest.test_case "failed checkpoint snapshot keeps journaling" `Quick
      test_failed_checkpoint_keeps_journaling;
    Alcotest.test_case "write policy counts from the installed image" `Quick
      test_policy_counts_from_image;
    Alcotest.test_case "checkpoint crash window recovers cold" `Quick
      test_checkpoint_crash_window;
    Alcotest.test_case "no-op commits are not journaled" `Quick
      test_noop_commits_not_journaled;
    Alcotest.test_case "old rank-stream coordinate recovers stale" `Quick
      test_old_coordinate_recovers_stale;
    Alcotest.test_case "a cancelling tail recovers as its net delta" `Quick
      test_cancelling_tail_folds;
    Alcotest.test_case "recovery: diverged ids re-warm the same shards" `Quick
      test_diverged_ids_rewarm;
    Alcotest.test_case "no-op records fold like per-record replay" `Quick
      test_noop_records_fold;
    Alcotest.test_case "images across evictions ≡ no memo" `Quick
      test_eviction_images;
    prop_coordinates;
    prop_kill_point;
  ]
