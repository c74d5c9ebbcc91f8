(* Resilience: time budgets with graceful degradation, failure-isolated
   portfolio fan-outs, the crash-recoverable session journal and the
   fault-injection registry driving all of it. The centerpiece is the
   randomized kill-point property: a journaled session killed mid-write
   at a random operation recovers and resumes to a state bit-identical
   to a session that was never interrupted. *)

open Util
module R = Relational
module D = Deleprop

let seeds = QCheck2.Gen.int_range 0 10_000

(* ---- Budget ---- *)

let test_budget_basic () =
  Alcotest.(check bool) "ms <= 0 is born expired" true
    (D.Budget.expired (D.Budget.of_ms 0.0));
  Alcotest.(check bool) "negative too" true (D.Budget.expired (D.Budget.of_ms (-5.0)));
  (* expiry is sticky: every tick raises, not just the first *)
  let b = D.Budget.of_ms 0.0 in
  for _ = 1 to 3 do
    Alcotest.check_raises "tick raises on expired budget" D.Budget.Expired (fun () ->
        D.Budget.tick b)
  done;
  Alcotest.(check bool) "remaining clamps at 0" true
    (Float.equal 0.0 (D.Budget.remaining_ms b));
  let generous = D.Budget.of_ms 1e9 in
  Alcotest.(check bool) "generous budget not expired" false (D.Budget.expired generous);
  D.Budget.tick generous;
  D.Budget.tick_o (Some generous);
  D.Budget.tick_o None;
  Alcotest.(check bool) "remaining positive" true (D.Budget.remaining_ms generous > 0.0);
  Alcotest.check_raises "NaN deadline rejected"
    (Invalid_argument "Budget.of_ms: NaN") (fun () -> ignore (D.Budget.of_ms Float.nan))

let test_budget_throttled_expiry () =
  (* a budget that expires while we sleep: the throttled probe must
     notice within one clock-read interval of ticks *)
  let b = D.Budget.of_ms 1.0 in
  Unix.sleepf 0.005;
  let raised = ref false in
  (try
     for _ = 0 to (2 * D.Budget.tick_mask) + 2 do
       D.Budget.tick b
     done
   with D.Budget.Expired -> raised := true);
  Alcotest.(check bool) "expiry detected within the throttle window" true !raised

(* ---- Failpoint ---- *)

let test_failpoint_parse () =
  let parsed = D.Failpoint.parse "a=raise, b=delay:5 ,c=crash_after_bytes:12," in
  Alcotest.(check int) "three entries" 3 (List.length parsed);
  Alcotest.(check bool) "raise" true (List.assoc "a" parsed = D.Failpoint.Raise);
  Alcotest.(check bool) "delay" true (List.assoc "b" parsed = D.Failpoint.Delay_ms 5);
  Alcotest.(check bool) "crash_after_bytes" true
    (List.assoc "c" parsed = D.Failpoint.Crash_after_bytes 12);
  let invalid spec =
    match D.Failpoint.parse spec with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "unknown action rejected" true (invalid "a=bogus");
  Alcotest.(check bool) "missing = rejected" true (invalid "justaname");
  Alcotest.(check bool) "negative delay rejected" true (invalid "a=delay:-1");
  Alcotest.(check bool) "empty name rejected" true (invalid "=raise")

let test_failpoint_registry () =
  D.Failpoint.set "resil.x" D.Failpoint.Raise;
  Alcotest.check_raises "armed site raises" (D.Failpoint.Injected "resil.x") (fun () ->
      D.Failpoint.hit "resil.x");
  D.Failpoint.clear "resil.x";
  D.Failpoint.hit "resil.x" (* disarmed: no-op *);
  Alcotest.(check bool) "find after clear" true (D.Failpoint.find "resil.x" = None);
  D.Failpoint.set "resil.d" (D.Failpoint.Delay_ms 0);
  D.Failpoint.hit "resil.d" (* delay returns *);
  D.Failpoint.set "resil.c" (D.Failpoint.Crash_after_bytes 4);
  D.Failpoint.hit "resil.c" (* only the journal writer interprets this *);
  Alcotest.(check bool) "find sees the armed action" true
    (D.Failpoint.find "resil.c" = Some (D.Failpoint.Crash_after_bytes 4));
  D.Failpoint.clear "resil.d";
  D.Failpoint.clear "resil.c";
  (* the environment is read on first lookup after a reset — and only
     names some code path has registered are legal in it *)
  D.Failpoint.register "resil.env";
  let saved = Sys.getenv_opt "DELEPROP_FAILPOINTS" in
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "DELEPROP_FAILPOINTS" (Option.value ~default:"" saved);
      D.Failpoint.reset ())
    (fun () ->
      Unix.putenv "DELEPROP_FAILPOINTS" "resil.env=delay:7";
      D.Failpoint.reset ();
      Alcotest.(check bool) "env entry armed" true
        (D.Failpoint.find "resil.env" = Some (D.Failpoint.Delay_ms 7));
      (* programmatic clear shadows the environment entry *)
      D.Failpoint.clear "resil.env";
      Alcotest.(check bool) "clear shadows env" true
        (D.Failpoint.find "resil.env" = None);
      (* an unknown name in the environment is a loud, typed mistake —
         a typo'd site would otherwise arm nothing, silently *)
      Unix.putenv "DELEPROP_FAILPOINTS" "no.such.site=raise";
      D.Failpoint.reset ();
      (match D.Failpoint.find "resil.env" with
      | exception Invalid_argument msg ->
        Alcotest.(check bool) "error names the bad site" true
          (String.length msg > 0
          && Astring.String.is_infix ~affix:"no.such.site" msg)
      | _ -> Alcotest.fail "unknown env failpoint name accepted");
      (* the known-site registry is queryable and includes the engine's
         built-in sites *)
      let names = D.Failpoint.names () in
      List.iter
        (fun site ->
          Alcotest.(check bool) (site ^ " registered") true
            (List.mem site names))
        [
          "journal.append"; "journal.rewrite"; "snapshot.write"; "solver.greedy";
        ])

(* ---- Par: pool validation, result dialect, concurrent shutdown ---- *)

let test_pool_validation () =
  let invalid f = match f () with exception Invalid_argument _ -> true | _ -> false in
  Alcotest.(check bool) "Pool.create ~domains:0" true
    (invalid (fun () -> D.Par.Pool.create ~domains:0 ()));
  Alcotest.(check bool) "Pool.create ~domains:-3" true
    (invalid (fun () -> D.Par.Pool.create ~domains:(-3) ()));
  Alcotest.(check bool) "Par.map ~domains:0" true
    (invalid (fun () -> D.Par.map ~domains:0 (fun x -> x) [ 1 ]));
  Alcotest.(check bool) "Par.map_result ~domains:0" true
    (invalid (fun () -> D.Par.map_result ~domains:0 (fun x -> x) [ 1 ]))

let test_map_result () =
  let f x = if x mod 2 = 0 then failwith (Printf.sprintf "boom %d" x) else x * 10 in
  let expect =
    [ Ok 10; Error (Failure "boom 2"); Ok 30; Error (Failure "boom 4"); Ok 50 ]
  in
  let check tag got =
    Alcotest.(check bool) tag true (got = expect)
  in
  check "sequential" (D.Par.map_result f [ 1; 2; 3; 4; 5 ]);
  check "fresh domains" (D.Par.map_result ~domains:2 f [ 1; 2; 3; 4; 5 ]);
  let pool = D.Par.Pool.create ~domains:3 () in
  check "pool" (D.Par.Pool.map_result pool f [ 1; 2; 3; 4; 5 ]);
  (* a failing job leaves the pool fully usable *)
  Alcotest.(check (list int)) "pool survives failures" [ 2; 3; 4 ]
    (D.Par.Pool.map pool (fun x -> x + 1) [ 1; 2; 3 ]);
  check "pool again" (D.Par.map_result ~pool f [ 1; 2; 3; 4; 5 ]);
  D.Par.Pool.shutdown pool;
  check "after shutdown: sequential" (D.Par.Pool.map_result pool f [ 1; 2; 3; 4; 5 ])

let test_pool_concurrent_shutdown () =
  let pool = D.Par.Pool.create ~domains:3 () in
  Alcotest.(check (list int)) "warm-up" [ 1; 2; 3 ]
    (D.Par.Pool.map pool (fun x -> x + 1) [ 0; 1; 2 ]);
  (* several domains racing to shut the same pool down: all return *)
  let racers =
    List.init 4 (fun _ -> Domain.spawn (fun () -> D.Par.Pool.shutdown pool))
  in
  D.Par.Pool.shutdown pool;
  List.iter Domain.join racers;
  Alcotest.(check (list int)) "degrades to sequential" [ 0; 2; 4 ]
    (D.Par.Pool.map pool (fun x -> 2 * x) [ 0; 1; 2 ]);
  D.Par.Pool.shutdown pool (* still idempotent *)

(* ---- Portfolio: failure isolation and the degradation ladder ---- *)

let fig1_arena () =
  let p = Workload.Author_journal.scenario_q4 () in
  D.Arena.build (D.Provenance.build p)

let is_crashed (f : D.Portfolio.failure) =
  match f.D.Portfolio.reason with D.Portfolio.Crashed _ -> true | _ -> false

let is_timed_out (f : D.Portfolio.failure) =
  f.D.Portfolio.reason = D.Portfolio.Timed_out

let test_portfolio_crash_isolated () =
  let a = fig1_arena () in
  Fun.protect
    ~finally:(fun () -> D.Failpoint.clear "solver.primal-dual")
    (fun () ->
      D.Failpoint.set "solver.primal-dual" D.Failpoint.Raise;
      let report = D.Portfolio.solutions_report a in
      Alcotest.(check bool) "primal-dual recorded as crashed" true
        (List.exists
           (fun (f : D.Portfolio.failure) ->
             f.D.Portfolio.algorithm = "primal-dual" && is_crashed f)
           report.D.Portfolio.failures);
      Alcotest.(check bool) "no primal-dual solution" false
        (List.exists
           (fun (s : D.Solution.t) -> s.D.Solution.algorithm = "primal-dual")
           report.D.Portfolio.solutions);
      Alcotest.(check bool) "siblings still answer" true
        (report.D.Portfolio.solutions <> []);
      Alcotest.(check bool) "not degraded: real solvers finished" false
        report.D.Portfolio.degraded;
      (* the same isolation holds on the parallel fan-out *)
      let par = D.Portfolio.solutions_report ~domains:2 a in
      Alcotest.(check bool) "parallel: crash isolated too" true
        (par.D.Portfolio.solutions <> []
        && List.exists
             (fun (f : D.Portfolio.failure) ->
               f.D.Portfolio.algorithm = "primal-dual")
             par.D.Portfolio.failures))

let test_portfolio_budget_degrades () =
  let a = fig1_arena () in
  (* an already-expired budget and a portfolio restricted to one budgeted
     solver: the round must still answer, via the unbudgeted greedy rung *)
  let report =
    D.Portfolio.solutions_report ~only:[ "primal-dual" ] ~budget_ms:0.0 a
  in
  Alcotest.(check bool) "primal-dual timed out" true
    (List.exists
       (fun (f : D.Portfolio.failure) ->
         f.D.Portfolio.algorithm = "primal-dual" && is_timed_out f)
       report.D.Portfolio.failures);
  Alcotest.(check bool) "degraded" true report.D.Portfolio.degraded;
  (match report.D.Portfolio.solutions with
  | [ s ] ->
    Alcotest.(check string) "ladder answer is greedy" "greedy"
      s.D.Solution.algorithm;
    Alcotest.(check bool) "feasible" true (D.Solution.feasible s);
    Alcotest.(check bool) "heuristic certificate" true
      (s.D.Solution.certificate = D.Solution.Heuristic)
  | ss ->
    Alcotest.fail
      (Printf.sprintf "expected exactly the ladder solution, got %d" (List.length ss)))

let test_portfolio_all_crash_degrades () =
  let a = fig1_arena () in
  let names = [ "brute"; "primal-dual"; "lowdeg"; "dp-tree"; "general"; "greedy" ] in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun n -> D.Failpoint.clear ("solver." ^ n)) names)
    (fun () ->
      List.iter (fun n -> D.Failpoint.set ("solver." ^ n) D.Failpoint.Raise) names;
      let report = D.Portfolio.solutions_report a in
      Alcotest.(check bool) "every attempted solver crashed" true
        (report.D.Portfolio.failures <> []
        && List.for_all is_crashed report.D.Portfolio.failures);
      (* the ladder's greedy pass runs outside the registry *)
      Alcotest.(check bool) "degraded" true report.D.Portfolio.degraded;
      match report.D.Portfolio.solutions with
      | [ s ] -> Alcotest.(check bool) "ladder still answers" true (D.Solution.feasible s)
      | _ -> Alcotest.fail "expected the single ladder solution")

let test_lowdeg_budget () =
  let a = fig1_arena () in
  let unbudgeted = D.Lowdeg.solve_arena a in
  Alcotest.(check bool) "unbudgeted sweep is complete" true
    unbudgeted.D.Lowdeg.complete;
  let generous = D.Lowdeg.solve_arena ~budget:(D.Budget.of_ms 1e9) a in
  Alcotest.(check bool) "generous budget: same deletion" true
    (R.Stuple.Set.equal unbudgeted.D.Lowdeg.deletion generous.D.Lowdeg.deletion);
  Alcotest.(check bool) "generous budget: complete" true generous.D.Lowdeg.complete;
  (* born-expired budget: not a single threshold finishes *)
  Alcotest.check_raises "expired budget escapes" D.Budget.Expired (fun () ->
      ignore (D.Lowdeg.solve_arena ~budget:(D.Budget.of_ms 0.0) a))

(* ---- Journal: codec, torn writes, corruption ---- *)

let magic = "DLPJRNL1"

(* facts go through the serializer so values get the same typing a
   journal replay produces (numeric constants parse as [Int]) *)
let stf s =
  let rel, tuple = R.Serial.fact_of_string s in
  R.Stuple.make rel tuple

let record_equal (a : Engine.Journal.record) (b : Engine.Journal.record) =
  match (a, b) with
  | Engine.Journal.Apply x, Engine.Journal.Apply y
  | Engine.Journal.Delete x, Engine.Journal.Delete y ->
    R.Stuple.Set.equal x y
  | Engine.Journal.Insert x, Engine.Journal.Insert y -> R.Stuple.equal x y
  | ( Engine.Journal.Delta { deletes = d1; inserts = i1 },
      Engine.Journal.Delta { deletes = d2; inserts = i2 } ) ->
    R.Stuple.Set.equal d1 d2 && R.Stuple.Set.equal i1 i2
  | _ -> false

let records_equal a b = List.length a = List.length b && List.for_all2 record_equal a b

let with_temp_journal f =
  let path = Filename.temp_file "deleprop_resil" ".journal" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let sample_records =
  [
    Engine.Journal.Apply
      (R.Stuple.Set.of_list [ stf "T1(Tom, TKDE)"; stf "T2(TKDE, XML, 30)" ]);
    Engine.Journal.Delete R.Stuple.Set.empty;
    Engine.Journal.Insert (stf "T1(Ann, TODS)");
    Engine.Journal.Delete (R.Stuple.Set.singleton (stf "T1(Tom, TKDE)"));
    Engine.Journal.Delta
      {
        deletes = R.Stuple.Set.singleton (stf "T2(TKDE, XML, 30)");
        inserts = R.Stuple.Set.of_list [ stf "T1(Zoe, VLDB)"; stf "T2(TKDE, XML, 30)" ];
      };
  ]

let write_records path records =
  let w = Engine.Journal.open_writer path in
  List.iter (Engine.Journal.append w) records;
  Engine.Journal.close_writer w

let load_ok ?repair path =
  match Engine.Journal.load ?repair path with
  | Ok records -> records
  | Error e -> Alcotest.fail (Format.asprintf "%a" Engine.Journal.pp_error e)

let file_size path = (Unix.stat path).Unix.st_size

let append_raw path s =
  let oc = open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644 path in
  output_string oc s;
  close_out oc

(* the record framing, reproduced byte for byte so tests can forge
   corrupt files: u32 LE length | u32 LE CRC-32(payload) | payload *)
let u32_le n =
  let b = Bytes.create 4 in
  Bytes.set_uint8 b 0 (n land 0xFF);
  Bytes.set_uint8 b 1 ((n lsr 8) land 0xFF);
  Bytes.set_uint8 b 2 ((n lsr 16) land 0xFF);
  Bytes.set_uint8 b 3 ((n lsr 24) land 0xFF);
  Bytes.unsafe_to_string b

let frame ?crc payload =
  let crc =
    match crc with
    | Some c -> c
    | None -> Int32.to_int (Engine.Durable.crc32 payload) land 0xFFFFFFFF
  in
  u32_le (String.length payload) ^ u32_le crc ^ payload

let test_journal_roundtrip () =
  with_temp_journal (fun path ->
      Sys.remove path;
      Alcotest.(check bool) "missing file loads empty" true (load_ok path = []);
      write_records path sample_records;
      Alcotest.(check bool) "round-trips" true
        (records_equal sample_records (load_ok path));
      (* appends accumulate across writer reopens *)
      write_records path [ List.hd sample_records ];
      Alcotest.(check bool) "reopen appends" true
        (records_equal
           (sample_records @ [ List.hd sample_records ])
           (load_ok path)))

let test_journal_crc32 () =
  (* the CRC-32/IEEE check value: crc("123456789") = 0xCBF43926 *)
  Alcotest.(check bool) "IEEE check value" true
    (Engine.Durable.crc32 "123456789" = 0xCBF43926l)

let test_journal_bad_magic () =
  with_temp_journal (fun path ->
      let oc = open_out_bin path in
      output_string oc "definitely not a journal";
      close_out oc;
      match Engine.Journal.load path with
      | Error (Engine.Journal.Bad_magic p) -> Alcotest.(check string) "path" path p
      | _ -> Alcotest.fail "expected Bad_magic")

let test_journal_torn_final () =
  with_temp_journal (fun path ->
      write_records path sample_records;
      let intact = file_size path in
      (* a torn header, then separately a torn payload, then a final
         record whose checksum fails: all three are dropped, and only
         [repair] shrinks the file *)
      List.iter
        (fun torn ->
          append_raw path torn;
          Alcotest.(check bool) "torn tail dropped" true
            (records_equal sample_records (load_ok path));
          Alcotest.(check bool) "no repair: file untouched" true
            (file_size path > intact);
          Alcotest.(check bool) "repair truncates" true
            (records_equal sample_records (load_ok ~repair:true path));
          Alcotest.(check int) "file back to the intact prefix" intact
            (file_size path))
        [
          "\x05";                                  (* 1 of 8 header bytes *)
          u32_le 1000 ^ u32_le 0 ^ "short";        (* payload shorter than length *)
          frame ~crc:42 "D";                       (* full final record, bad CRC *)
        ];
      (* a repaired journal keeps working *)
      write_records path [ Engine.Journal.Insert (stf "T1(Zoe, VLDB)") ];
      Alcotest.(check int) "append after repair" (List.length sample_records + 1)
        (List.length (load_ok path)))

let test_journal_interior_corrupt () =
  with_temp_journal (fun path ->
      let write_raw frames =
        let oc = open_out_bin path in
        output_string oc magic;
        List.iter (output_string oc) frames;
        close_out oc
      in
      (* checksum failure with a record after it: corruption, not a torn tail *)
      write_raw [ frame ~crc:42 "D"; frame "D" ];
      (match Engine.Journal.load path with
      | Error (Engine.Journal.Corrupt { index = 0; _ }) -> ()
      | _ -> Alcotest.fail "expected Corrupt at record 0");
      (* a checksummed payload that does not decode is corrupt wherever it
         sits — even in final position the bytes were written whole *)
      write_raw [ frame "D"; frame "Z\nwhat" ];
      (match Engine.Journal.load path with
      | Error (Engine.Journal.Corrupt { index = 1; _ }) -> ()
      | _ -> Alcotest.fail "expected Corrupt at record 1");
      (* corruption is an error even under repair *)
      match Engine.Journal.load ~repair:true path with
      | Error (Engine.Journal.Corrupt _) -> ()
      | _ -> Alcotest.fail "repair must not mask interior corruption")

let test_journal_crash_failpoint () =
  with_temp_journal (fun path ->
      Fun.protect
        ~finally:(fun () -> D.Failpoint.clear "journal.append")
        (fun () ->
          write_records path [ List.hd sample_records ];
          (* the writer dies 3 bytes into the next record: torn write *)
          D.Failpoint.set "journal.append" (D.Failpoint.Crash_after_bytes 3);
          let w = Engine.Journal.open_writer path in
          Alcotest.check_raises "injected crash" (D.Failpoint.Injected "journal.append")
            (fun () -> Engine.Journal.append w (List.nth sample_records 2));
          Engine.Journal.close_writer w;
          D.Failpoint.clear "journal.append";
          Alcotest.(check int) "torn record dropped on load" 1
            (List.length (load_ok ~repair:true path));
          (* an allowance larger than the record: the write completes
             before the injected kill, and recovery keeps it *)
          D.Failpoint.set "journal.append" (D.Failpoint.Crash_after_bytes 4096);
          let w = Engine.Journal.open_writer path in
          Alcotest.check_raises "kill after a complete write"
            (D.Failpoint.Injected "journal.append") (fun () ->
              Engine.Journal.append w (List.nth sample_records 2));
          Engine.Journal.close_writer w;
          D.Failpoint.clear "journal.append";
          Alcotest.(check int) "completed record recovered" 2
            (List.length (load_ok ~repair:true path))))

let read_whole path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let read_u32_le s pos =
  Char.code s.[pos]
  lor (Char.code s.[pos + 1] lsl 8)
  lor (Char.code s.[pos + 2] lsl 16)
  lor (Char.code s.[pos + 3] lsl 24)

(* byte offset of data record [i]'s payload in the file — walks the
   frame chain, skipping the generation marker the writer now leads
   with *)
let payload_offset data i =
  let rec walk pos idx =
    let plen = read_u32_le data pos in
    let payload_start = pos + 8 in
    if data.[payload_start] = 'G' then walk (payload_start + plen) idx
    else if idx = i then payload_start
    else walk (payload_start + plen) (idx + 1)
  in
  walk (String.length magic) 0

let flip_byte path offset =
  let data = read_whole path in
  let b = Bytes.of_string data in
  Bytes.set b offset (Char.chr (Char.code (Bytes.get b offset) lxor 0x01));
  let oc = open_out_bin path in
  output_bytes oc b;
  close_out oc

(* a single flipped bit in any record type — [A]pply, [D]elete,
   [I]nsert, [U] delta — is a typed [Corrupt] at that record's index *)
let test_journal_bitflip_every_tag () =
  (* one record of each tag, plus a trailing record so every flip is
     interior corruption (a checksum-failing *final* record is a torn
     tail by design, dropped silently) *)
  let records = sample_records @ [ Engine.Journal.Insert (stf "T1(Ned, ICDE)") ] in
  List.iteri
    (fun i (r : Engine.Journal.record) ->
      let tag =
        match r with
        | Engine.Journal.Apply _ -> "A"
        | Engine.Journal.Delete _ -> "D"
        | Engine.Journal.Insert _ -> "I"
        | Engine.Journal.Delta _ -> "U"
      in
      with_temp_journal (fun path ->
          write_records path records;
          flip_byte path (payload_offset (read_whole path) i);
          (match Engine.Journal.load path with
          | Error (Engine.Journal.Corrupt { index; _ }) ->
            Alcotest.(check int) (tag ^ ": Corrupt index") i index
          | Ok _ -> Alcotest.fail (tag ^ ": bit flip loaded cleanly")
          | Error e ->
            Alcotest.fail (Format.asprintf "%s: %a" tag Engine.Journal.pp_error e));
          (* corruption stays an error under repair *)
          match Engine.Journal.load ~repair:true path with
          | Error (Engine.Journal.Corrupt _) -> ()
          | _ -> Alcotest.fail (tag ^ ": repair masked the corruption")))
    (List.filteri (fun i _ -> i < List.length records - 1) records)

(* ---- Journal segment rotation ---- *)

let sealed_segments path =
  let dir = Filename.dirname path in
  let prefix = Filename.basename path ^ ".seg-" in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun e ->
         String.length e > String.length prefix
         && String.sub e 0 (String.length prefix) = prefix)
  |> List.sort compare

let with_temp_journal_segments f =
  with_temp_journal (fun path ->
      Fun.protect
        ~finally:(fun () ->
          List.iter
            (fun e ->
              try Sys.remove (Filename.concat (Filename.dirname path) e)
              with Sys_error _ -> ())
            (sealed_segments path))
        (fun () -> f path))

let test_journal_rotation () =
  with_temp_journal_segments (fun path ->
      Sys.remove path;
      (* a tiny bound: every append crosses it, sealing one segment per
         record *)
      let w = Engine.Journal.open_writer ~segment_bytes:16 path in
      List.iter (Engine.Journal.append w) sample_records;
      Engine.Journal.close_writer w;
      Alcotest.(check bool) "appends sealed segments" true
        (List.length (sealed_segments path) >= List.length sample_records - 1);
      Alcotest.(check bool) "rotated journal replays in order" true
        (records_equal sample_records (load_ok path));
      (* reopening adopts the generation and keeps rotating *)
      let w = Engine.Journal.open_writer ~segment_bytes:16 path in
      Engine.Journal.append w (List.hd sample_records);
      Engine.Journal.close_writer w;
      Alcotest.(check bool) "reopen appends across rotation" true
        (records_equal (sample_records @ [ List.hd sample_records ]) (load_ok path));
      (* a torn write tears only the *active* file; every sealed record
         survives *)
      D.Failpoint.set "journal.append" (D.Failpoint.Crash_after_bytes 3);
      Fun.protect
        ~finally:(fun () -> D.Failpoint.clear "journal.append")
        (fun () ->
          let w = Engine.Journal.open_writer ~segment_bytes:16 path in
          Alcotest.check_raises "injected crash"
            (D.Failpoint.Injected "journal.append") (fun () ->
              Engine.Journal.append w (List.nth sample_records 2));
          Engine.Journal.close_writer w);
      Alcotest.(check bool) "sealed records survive the torn tail" true
        (records_equal
           (sample_records @ [ List.hd sample_records ])
           (load_ok ~repair:true path));
      (* a fresh active file whose header tore inside the magic holds no
         records (each append above rotated, so the active held only its
         header): repair empties it, and the next writer heads it at the
         sealed segments' generation *)
      let sealed = sample_records @ [ List.hd sample_records ] in
      let gen = Engine.Journal.current_gen path in
      let oc = open_out_bin path in
      output_string oc (String.sub magic 0 4);
      close_out oc;
      Alcotest.(check bool) "torn magic: no records, no error" true
        (records_equal sealed (load_ok path));
      Alcotest.(check int) "torn magic: no repair, file untouched" 4 (file_size path);
      Alcotest.(check bool) "torn magic: repair" true
        (records_equal sealed (load_ok ~repair:true path));
      Alcotest.(check int) "torn magic: repair empties the file" 0 (file_size path);
      Alcotest.(check int) "torn magic: generation of the sealed segments" gen
        (Engine.Journal.current_gen path);
      write_records path [ List.nth sample_records 2 ];
      Alcotest.(check bool) "torn magic: the journal appends again" true
        (records_equal (sealed @ [ List.nth sample_records 2 ]) (load_ok path));
      Alcotest.(check int) "torn magic: re-headed at that generation" gen
        (Engine.Journal.current_gen path);
      (* rewrite: one baseline record, a bumped generation, stale
         segments unlinked *)
      Engine.Journal.rewrite path [ List.nth sample_records 4 ];
      Alcotest.(check int) "rewrite unlinks sealed segments" 0
        (List.length (sealed_segments path));
      Alcotest.(check bool) "rewrite leaves exactly the baseline" true
        (records_equal [ List.nth sample_records 4 ] (load_ok path));
      (* a stale sealed segment a crash left behind is ignored: its
         generation predates the active file's *)
      let stale = path ^ ".seg-0-99" in
      let oc = open_out_bin stale in
      output_string oc (magic ^ frame "D");
      close_out oc;
      Alcotest.(check bool) "stale-generation segment ignored" true
        (records_equal [ List.nth sample_records 4 ] (load_ok path));
      (* remove deletes the active file and every sealed segment *)
      Engine.Journal.remove path;
      Alcotest.(check bool) "remove clears everything" true
        ((not (Sys.file_exists path)) && sealed_segments path = []);
      (* the bound holds across reopens: a writer counts the bytes the
         active file held when it opened, so however many writers take
         turns, the active file outgrows the bound by at most the record
         that crossed it. The first writer leaves two of the longest
         records below the bound for the two reopening writers. *)
      let size_with records =
        Engine.Journal.remove path;
        write_records path records;
        file_size path
      in
      let header = size_with [] in
      let longest, r =
        List.fold_left
          (fun (m, best) r ->
            let n = size_with [ r ] - header in
            if n > m then (n, r) else (m, best))
          (0, List.hd sample_records) sample_records
      in
      Engine.Journal.remove path;
      let bound = header + (3 * longest) in
      let turns = [ [ r; r ]; sample_records; sample_records ] in
      List.iteri
        (fun i records ->
          let w = Engine.Journal.open_writer ~segment_bytes:bound path in
          List.iter
            (fun rc ->
              Engine.Journal.append w rc;
              Alcotest.(check bool)
                (Printf.sprintf "writer %d: active file within bound + one record" i)
                true
                (file_size path <= bound + longest))
            records;
          Engine.Journal.close_writer w)
        turns;
      Alcotest.(check bool) "every turn's records replay in order" true
        (records_equal (List.concat turns) (load_ok path));
      Engine.Journal.remove path)

(* ---- Engine sessions over a journal ---- *)

let fig1 () = Workload.Author_journal.scenario_q4 ()

let q4 vs = R.Tuple.strs vs

(* Database, views and provenance exactly; the arenas up to compaction.
   Recovery folds a journal into its net delta, so it reaches the same
   content through fewer deltas than the session that wrote the journal
   and carries fewer tombstones. *)
let check_same_state tag (a : Engine.t) (b : Engine.t) queries =
  Alcotest.(check bool) (tag ^ ": same database") true
    (R.Instance.equal (Engine.db a) (Engine.db b));
  List.iter
    (fun (q : Cq.Query.t) ->
      Alcotest.check Util.tuple_set
        (Printf.sprintf "%s: view %s" tag q.Cq.Query.name)
        (Engine.view a q.Cq.Query.name)
        (Engine.view b q.Cq.Query.name))
    queries;
  let prov_a, arena_a = Engine.index a and prov_b, arena_b = Engine.index b in
  Test_engine.check_prov_equal (tag ^ ": index") prov_a prov_b;
  Alcotest.(check bool) (tag ^ ": arena fingerprints agree") true
    (D.Fingerprint.equal (D.Fingerprint.arena arena_a)
       (D.Fingerprint.arena arena_b));
  Test_engine.check_arena_equal (tag ^ ": arena")
    (D.Arena.compact arena_a) (D.Arena.compact arena_b)

let test_engine_journal_recover () =
  with_temp_journal (fun path ->
      let p = fig1 () in
      let db = p.D.Problem.db and queries = p.D.Problem.queries in
      let eng = Engine.create ~domains:1 ~journal:path db queries in
      Engine.delete eng (R.Stuple.Set.singleton (stf "T2(TODS, XML, 30)"));
      Engine.insert eng (stf "T1(Ann, TODS)");
      (match Engine.request eng [ D.Delta_request.make ~view:"Q4" [ q4 [ "John"; "TKDE"; "XML" ] ] ] with
      | Error e -> Alcotest.fail (D.Delta_request.error_to_string e)
      | Ok plan -> (
        match Engine.apply eng plan with
        | Some _ -> ()
        | None -> Alcotest.fail "fig1 round must be solvable"));
      let appended = (Engine.stats eng).Engine.journal_records in
      Alcotest.(check int) "three records appended" 3 appended;
      Engine.close eng;
      (* the same database recovers through the journal to the same state *)
      let rec_eng = Engine.create ~domains:1 ~journal:path ~recover:true db queries in
      Alcotest.(check int) "recovered every record" appended
        ((Engine.stats rec_eng).Engine.recovered_records);
      check_same_state "recovered" eng rec_eng queries;
      Engine.close rec_eng;
      (* without [recover] an existing journal is discarded, not replayed *)
      let fresh = Engine.create ~domains:1 ~journal:path db queries in
      Alcotest.(check int) "no recovery without ~recover" 0
        ((Engine.stats fresh).Engine.recovered_records);
      Alcotest.(check bool) "journal reset to empty" true (load_ok path = []);
      Alcotest.(check bool) "fresh session sees the base db" true
        (R.Instance.equal db (Engine.db fresh));
      Engine.close fresh)

let test_engine_checkpoint () =
  with_temp_journal (fun path ->
      let p = fig1 () in
      let db = p.D.Problem.db and queries = p.D.Problem.queries in
      let eng = Engine.create ~domains:1 ~journal:path db queries in
      (* several single-tuple deletes plus an insert: many records *)
      Engine.delete eng (R.Stuple.Set.singleton (stf "T2(TODS, XML, 30)"));
      Engine.delete eng (R.Stuple.Set.singleton (stf "T1(Tom, TKDE)"));
      Engine.insert eng (stf "T1(Ann, TODS)");
      Alcotest.(check int) "pre-compaction records" 3
        (List.length (load_ok path));
      Engine.checkpoint eng;
      (* compacted to the diff against the base db: one symmetric Delta
         record carrying both deletions and the insert *)
      let compacted = load_ok path in
      Alcotest.(check int) "compacted to the diff" 1 (List.length compacted);
      (match compacted with
      | [ Engine.Journal.Delta { deletes; inserts } ] ->
        Alcotest.(check int) "both deletions in the one record" 2
          (R.Stuple.Set.cardinal deletes);
        Alcotest.(check bool) "the insert survives" true
          (R.Stuple.Set.equal inserts (R.Stuple.Set.singleton (stf "T1(Ann, TODS)")))
      | _ -> Alcotest.fail "expected a single [Delta] after checkpoint");
      (* the session keeps appending after the compaction *)
      Engine.delete eng (R.Stuple.Set.singleton (stf "T1(Ann, TODS)"));
      let rec_eng = Engine.create ~domains:1 ~journal:path ~recover:true db queries in
      check_same_state "checkpoint + tail" eng rec_eng queries;
      Engine.close rec_eng;
      Engine.close eng)

(* a checkpoint killed mid-compaction must never lose the session: the
   rewrite is atomic, so recovery sees either the complete old log or
   the complete compacted one — both bit-identical to the killed
   session's committed state *)
let test_engine_checkpoint_crash () =
  with_temp_journal (fun path ->
      Fun.protect
        ~finally:(fun () ->
          D.Failpoint.clear "journal.rewrite";
          try Sys.remove (path ^ ".tmp") with Sys_error _ -> ())
        (fun () ->
          let p = fig1 () in
          let db = p.D.Problem.db and queries = p.D.Problem.queries in
          let run_to_checkpoint crash_bytes =
            let eng = Engine.create ~domains:1 ~journal:path db queries in
            Engine.delete eng (R.Stuple.Set.singleton (stf "T2(TODS, XML, 30)"));
            Engine.delete eng (R.Stuple.Set.singleton (stf "T1(Tom, TKDE)"));
            Engine.insert eng (stf "T1(Ann, TODS)");
            D.Failpoint.set "journal.rewrite"
              (D.Failpoint.Crash_after_bytes crash_bytes);
            Alcotest.check_raises "checkpoint dies at the failpoint"
              (D.Failpoint.Injected "journal.rewrite") (fun () ->
                Engine.checkpoint eng);
            D.Failpoint.clear "journal.rewrite";
            eng
          in
          (* killed a few bytes into the replacement image: the torn
             [.tmp] was never renamed, the full pre-checkpoint log
             survives and recovery replays it verbatim *)
          let eng = run_to_checkpoint 7 in
          Alcotest.(check int) "old log intact" 3 (List.length (load_ok path));
          let rec_eng = Engine.create ~domains:1 ~journal:path ~recover:true db queries in
          Alcotest.(check int) "all three records replayed" 3
            (Engine.stats rec_eng).Engine.recovered_records;
          check_same_state "crash mid-rewrite" eng rec_eng queries;
          Engine.close rec_eng;
          Engine.close eng;
          (* killed just after the rename: the compacted log is in
             place and recovery lands on the same state from it *)
          let eng = run_to_checkpoint max_int in
          Alcotest.(check int) "compacted log in place" 1
            (List.length (load_ok path));
          let rec_eng = Engine.create ~domains:1 ~journal:path ~recover:true db queries in
          check_same_state "crash post-rename" eng rec_eng queries;
          Engine.close rec_eng;
          Engine.close eng))

(* killed mid-append of an insert record: the in-memory patch had
   already committed when the write tore, but recovery only trusts the
   journal — it drops the torn record, replays the intact prefix
   (through the delta pipeline, no rebuild) and re-running the insert
   lands exactly where an uninterrupted session ends *)
let test_engine_crash_mid_insert () =
  with_temp_journal (fun path ->
      Fun.protect
        ~finally:(fun () -> D.Failpoint.clear "journal.append")
        (fun () ->
          let p = fig1 () in
          let db = p.D.Problem.db and queries = p.D.Problem.queries in
          let reference = Engine.create ~domains:1 db queries in
          Engine.delete reference (R.Stuple.Set.singleton (stf "T1(Tom, TKDE)"));
          Engine.insert reference (stf "T1(Ann, TODS)");
          let doomed = Engine.create ~domains:1 ~journal:path db queries in
          Engine.delete doomed (R.Stuple.Set.singleton (stf "T1(Tom, TKDE)"));
          D.Failpoint.set "journal.append" (D.Failpoint.Crash_after_bytes 5);
          Alcotest.check_raises "insert dies mid-append"
            (D.Failpoint.Injected "journal.append") (fun () ->
              Engine.insert doomed (stf "T1(Ann, TODS)"));
          D.Failpoint.clear "journal.append";
          Engine.close doomed;
          let revived =
            Engine.create ~domains:1 ~journal:path ~recover:true db queries
          in
          Alcotest.(check int) "torn insert record dropped" 1
            (Engine.stats revived).Engine.recovered_records;
          Engine.insert revived (stf "T1(Ann, TODS)");
          check_same_state "crash mid-insert" reference revived queries;
          Alcotest.(check bool) "the re-run insert was patched in" true
            ((Engine.stats revived).Engine.tuples_inserted > 0);
          Engine.close revived;
          Engine.close reference))

let test_script_keep_going () =
  let p = fig1 () in
  let script =
    "solve Q4(John, TKDE, XML)\nsolve Q4(NoSuch, TKDE, XML)\ndelete T2(TODS, XML, 30)\n"
  in
  let lines =
    match Engine.Script.parse script with
    | Ok lines -> lines
    | Error e -> Alcotest.fail e
  in
  (* default: the replay stops at the failing line, quoting its text *)
  let eng = Engine.create ~domains:1 p.D.Problem.db p.D.Problem.queries in
  (match Engine.Script.replay eng lines with
  | Error e ->
    Alcotest.(check bool) "error quotes the script line" true
      (Astring.String.is_infix ~affix:"solve Q4(NoSuch, TKDE, XML)" e)
  | Ok _ -> Alcotest.fail "expected the replay to stop");
  Engine.close eng;
  (* keep_going: the failed round is recorded and the tail still runs *)
  let eng = Engine.create ~domains:1 p.D.Problem.db p.D.Problem.queries in
  (match Engine.Script.replay ~keep_going:true eng lines with
  | Error e -> Alcotest.fail e
  | Ok rounds ->
    Alcotest.(check int) "all rounds recorded" 3 (List.length rounds);
    let errors =
      List.map (fun (r : Engine.Script.round) -> r.Engine.Script.error <> None) rounds
    in
    Alcotest.(check (list bool)) "only the middle round failed"
      [ false; true; false ] errors;
    (match (List.nth rounds 1).Engine.Script.error with
    | Some msg ->
      Alcotest.(check bool) "failed round quotes its line" true
        (Astring.String.is_infix ~affix:"solve Q4(NoSuch, TKDE, XML)" msg)
    | None -> Alcotest.fail "middle round must carry its error");
    (* the delete after the failure really ran *)
    Alcotest.(check bool) "tail op applied" false
      (R.Instance.mem (Engine.db eng) (stf "T2(TODS, XML, 30)")));
  Engine.close eng

(* ---- the kill-point property: crash + recover = never crashed ---- *)

(* one concrete session operation, replayable on any engine at the same
   state (solvers are deterministic, so re-execution commits the same
   deletion the reference session committed) *)
type sop =
  | Osolve of D.Delta_request.t list
  | Odelete of R.Stuple.t
  | Oinsert of R.Stuple.t

(* returns [true] when the op appended a journal record: solve rounds
   journal exactly when a solution was applied, delete/insert always *)
let exec_op eng = function
  | Osolve reqs -> (
    match Engine.request eng reqs with
    | Error e -> Alcotest.fail (D.Delta_request.error_to_string e)
    | Ok plan -> ( match Engine.apply eng plan with Some _ -> true | None -> false))
  | Odelete stu ->
    Engine.delete eng (R.Stuple.Set.singleton stu);
    true
  | Oinsert stu ->
    Engine.insert eng stu;
    true

(* drop the op prefix the recovered journal already covers: [recovered]
   journaling ops, plus any interleaved non-journaling ops (state-less
   no-solution solves) *)
let rec resume_suffix recovered ops =
  if recovered = 0 then ops
  else
    match ops with
    | [] -> Alcotest.fail "journal recovered more records than ops committed"
    | (_, true) :: tl -> resume_suffix (recovered - 1) tl
    | (_, false) :: tl -> resume_suffix recovered tl

let check_crash_recovery seed =
  let rng = rng seed in
  let { Workload.Forest_family.problem = p; _ } =
    Workload.Forest_family.generate ~rng
      {
        Workload.Forest_family.default with
        num_relations = 3;
        tuples_per_relation = 5;
        num_queries = 2;
        deletion_fraction = 0.0;
      }
  in
  let db = p.D.Problem.db and queries = p.D.Problem.queries in
  (* reference run, never interrupted and never journaled; the ops it
     draws (with their journals-a-record flags) become the replay script *)
  let reference = Engine.create ~domains:1 db queries in
  let deleted_pool = ref [] in
  let ops = ref [] in
  for _ = 1 to 8 do
    match Random.State.int rng 3 with
    | 0 -> (
      let prov, _ = Engine.index reference in
      match Test_engine.random_requests rng prov with
      | [] -> ()
      | reqs ->
        let journaled = exec_op reference (Osolve reqs) in
        ops := (Osolve reqs, journaled) :: !ops)
    | 1 -> (
      match R.Instance.stuples (Engine.db reference) with
      | [] -> ()
      | sts ->
        let stu = List.nth sts (Random.State.int rng (List.length sts)) in
        let journaled = exec_op reference (Odelete stu) in
        deleted_pool := stu :: !deleted_pool;
        ops := (Odelete stu, journaled) :: !ops)
    | _ -> (
      match !deleted_pool with
      | [] -> ()
      | stu :: rest ->
        deleted_pool := rest;
        if not (R.Instance.mem (Engine.db reference) stu) then begin
          let journaled = exec_op reference (Oinsert stu) in
          ops := (Oinsert stu, journaled) :: !ops
        end)
  done;
  let ops = List.rev !ops in
  if ops = [] then begin
    Engine.close reference;
    true
  end
  else
    with_temp_journal (fun path ->
        (* the doomed run: journaled, and killed mid-append at a random
           byte of a random operation's record *)
        let crash_at = Random.State.int rng (List.length ops) in
        let crash_bytes = Random.State.int rng 48 in
        let doomed = Engine.create ~domains:1 ~journal:path db queries in
        Fun.protect
          ~finally:(fun () -> D.Failpoint.clear "journal.append")
          (fun () ->
            try
              List.iteri
                (fun i (op, _) ->
                  if i = crash_at then
                    D.Failpoint.set "journal.append"
                      (D.Failpoint.Crash_after_bytes crash_bytes);
                  ignore (exec_op doomed op))
                ops
            with D.Failpoint.Injected _ -> ());
        Engine.close doomed;
        (* recover on the base database and resume the remaining ops *)
        let revived = Engine.create ~domains:1 ~journal:path ~recover:true db queries in
        let recovered = (Engine.stats revived).Engine.recovered_records in
        List.iter
          (fun (op, _) -> ignore (exec_op revived op))
          (resume_suffix recovered ops);
        check_same_state (Printf.sprintf "seed %d" seed) reference revived queries;
        Engine.close revived;
        Engine.close reference;
        true)

let prop_crash_recovery =
  qcheck ~count:100 "journal: kill mid-write + recover = uninterrupted session" seeds
    check_crash_recovery

let suite =
  [
    Alcotest.test_case "budget: expiry, stickiness, validation" `Quick test_budget_basic;
    Alcotest.test_case "budget: throttled probe detects expiry" `Quick
      test_budget_throttled_expiry;
    Alcotest.test_case "failpoint: parse" `Quick test_failpoint_parse;
    Alcotest.test_case "failpoint: registry + environment" `Quick
      test_failpoint_registry;
    Alcotest.test_case "pool: domains < 1 rejected" `Quick test_pool_validation;
    Alcotest.test_case "par: map_result isolates failures" `Quick test_map_result;
    Alcotest.test_case "pool: concurrent shutdown" `Quick test_pool_concurrent_shutdown;
    Alcotest.test_case "portfolio: crashing solver isolated" `Quick
      test_portfolio_crash_isolated;
    Alcotest.test_case "portfolio: budget exhaustion degrades to greedy" `Quick
      test_portfolio_budget_degrades;
    Alcotest.test_case "portfolio: every solver dead, ladder answers" `Quick
      test_portfolio_all_crash_degrades;
    Alcotest.test_case "lowdeg: budgeted sweep" `Quick test_lowdeg_budget;
    Alcotest.test_case "journal: round-trip" `Quick test_journal_roundtrip;
    Alcotest.test_case "journal: CRC-32 check value" `Quick test_journal_crc32;
    Alcotest.test_case "journal: bad magic" `Quick test_journal_bad_magic;
    Alcotest.test_case "journal: torn final record" `Quick test_journal_torn_final;
    Alcotest.test_case "journal: interior corruption" `Quick
      test_journal_interior_corrupt;
    Alcotest.test_case "journal: injected torn writes" `Quick
      test_journal_crash_failpoint;
    Alcotest.test_case "journal: bit flip in every record type" `Quick
      test_journal_bitflip_every_tag;
    Alcotest.test_case "journal: segment rotation" `Quick test_journal_rotation;
    Alcotest.test_case "engine: journal recover" `Quick test_engine_journal_recover;
    Alcotest.test_case "engine: checkpoint compaction" `Quick test_engine_checkpoint;
    Alcotest.test_case "engine: checkpoint killed mid-compaction" `Quick
      test_engine_checkpoint_crash;
    Alcotest.test_case "engine: crash mid-insert + recover" `Quick
      test_engine_crash_mid_insert;
    Alcotest.test_case "script: keep_going records failures" `Quick
      test_script_keep_going;
    prop_crash_recovery;
  ]
