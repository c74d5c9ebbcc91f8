(* Session replay benchmark.

     replay.exe --workload NAME --seed N --seconds S --trace 0|1
                [--git-rev REV]
     replay.exe --selftest [--seed N]

   Replays a deterministic round script (Gen) against one long-lived
   [Engine] session: a single client in a closed loop, each round sent
   once the previous answer is back. The amount of work is fixed by the
   workload and [--seconds], never by a clock. The last stdout line is
   one JSON object: [correct], [attempted], [failed] and [metrics] —
   the end-to-end metrics with [--trace 0], the per-layer metrics with
   [--trace 1]. End-to-end times are scaled to a reference machine
   speed (see the calibration section); per-layer times are raw.
   Session files go to [out]; traced runs also write their spans (JSONL)
   and a per-layer summary there. *)

module R = Relational
module D = Deleprop
module E = Engine

let now = Unix.gettimeofday

let out = ".perfbench_out"

(* ---- statistics ---- *)

let quantile l p =
  match List.sort compare l with
  | [] -> 0.0
  | l ->
    let a = Array.of_list l in
    let n = Array.length a in
    let x = p *. float_of_int (n - 1) in
    let i = int_of_float x in
    if i + 1 >= n then a.(n - 1) else a.(i) +. ((x -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median l = quantile l 0.5

let mean l = match l with [] -> 0.0 | _ -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

let sum l = List.fold_left ( +. ) 0.0 l

(* ---- workloads ---- *)

type workload = {
  name : string;
  rounds_at_10s : int;  (* measured rounds for --seconds 10 (scaled, at least 200) *)
  warm : int;  (* warm-up rounds replayed by each set-up *)
  domains : int;
}

let workloads =
  [
    { name = "whatif_skew"; rounds_at_10s = 2000; warm = 300; domains = 1 };
    { name = "edit_churn"; rounds_at_10s = 800; warm = 48; domains = 1 };
    { name = "approx_blocks"; rounds_at_10s = 360; warm = 40; domains = 2 };
    { name = "restart_tail"; rounds_at_10s = 200; warm = 0; domains = 1 };
  ]

(* set-ups per run; setup_s is their median *)
let setups = 3

let script wl ~seed ~rounds =
  match wl.name with
  | "whatif_skew" -> Gen.whatif_skew ~seed ~warm:wl.warm ~rounds
  | "edit_churn" -> Gen.edit_churn ~seed ~warm:wl.warm ~rounds
  | "approx_blocks" -> Gen.approx_blocks ~seed ~warm:wl.warm ~rounds
  | _ -> Gen.restart_tail ~seed ~rounds

(* ---- files ---- *)

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let clear_dir d = Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d)

let read_file p = In_channel.with_open_bin p In_channel.input_all
let write_file p s = Out_channel.with_open_bin p (fun oc -> Out_channel.output_string oc s)

let file_bytes d prefix =
  Array.fold_left
    (fun acc f ->
      if String.starts_with ~prefix f then acc + (Unix.stat (Filename.concat d f)).Unix.st_size
      else acc)
    0 (Sys.readdir d)

(* ---- per-run accounting ---- *)

type acc = {
  mutable lat : float list;  (* ms per round: the real calls only *)
  mutable wall : float list;  (* traced runs: ms per round including shadows *)
  mutable cur : float;
  mutable words : float;
  mutable minor : int;
  mutable major : int;
  mutable heap : int;  (* peak live words, sampled by [sample_heap] *)
  mutable heap_base : int;  (* live words of the benchmark's own data *)
  mutable cost : float;
  mutable failed : int;
  mutable errors : string list;
}

let new_acc () =
  { lat = []; wall = []; cur = 0.0; words = 0.0; minor = 0; major = 0; heap = 0; heap_base = 0;
    cost = 0.0; failed = 0; errors = [] }

(* one real call into the engine: timed, its allocation and collections
   counted (Gc.quick_stat sums over every domain), optionally a span *)
let real ?tr ~name ~round acc f =
  let g0 = Gc.quick_stat () in
  let t0 = now () in
  let r = f () in
  let t1 = now () in
  let g1 = Gc.quick_stat () in
  acc.cur <- acc.cur +. ((t1 -. t0) *. 1000.0);
  acc.words <-
    acc.words
    +. (g1.Gc.minor_words -. g0.Gc.minor_words)
    +. (g1.Gc.major_words -. g0.Gc.major_words)
    -. (g1.Gc.promoted_words -. g0.Gc.promoted_words);
  acc.minor <- acc.minor + g1.Gc.minor_collections - g0.Gc.minor_collections;
  acc.major <- acc.major + g1.Gc.major_collections - g0.Gc.major_collections;
  let id =
    match tr with
    | Some tr -> Trace.record tr ~name ~parent:0 ~round ~shadow:false ~start:t0 ~stop:t1
    | None -> 0
  in
  (r, id, (t1 -. t0) *. 1000.0)

let end_round acc ~started =
  acc.lat <- acc.cur :: acc.lat;
  acc.wall <- ((now () -. started) *. 1000.0) :: acc.wall;
  acc.cur <- 0.0

(* The heap peak: live words after a full collection ([Gc.stat] forces
   one), taken at four evenly spaced round boundaries with the session
   open, less [heap_base]: the script, the checker's tables and
   restart_tail's pristine files, which stay live through the run. The
   major heap's own size ([heap_words]) swings by 15% between seeds with
   the collector's pacing, so it is not used. *)
let heap_sampled n i = i = n - 1 || (i + 1) mod (max 1 (n / 4)) = 0

let live_words () = (Gc.stat ()).Gc.live_words

let sample_heap acc = acc.heap <- max acc.heap (live_words ())

let fail acc msg =
  acc.failed <- acc.failed + 1;
  if List.length acc.errors < 5 then acc.errors <- msg :: acc.errors

(* the round's verdict: the cheapest answer's cost, or what went wrong.
   [check] (a subset of rounds) re-evaluates the answer independently *)
let judge ?check (res : (E.plan, D.Delta_request.error) result) =
  match res with
  | Error e -> (0.0, Some ("request error: " ^ D.Delta_request.error_to_string e))
  | Ok plan -> (
    match plan.E.solutions with
    | [] -> (0.0, Some "no feasible answer")
    | s :: _ ->
      let cost = D.Solution.cost s in
      if plan.E.failures <> [] then (cost, Some "solver failures")
      else if plan.E.degraded then (cost, Some "degraded plan")
      else
        match check with
        | None -> (cost, None)
        | Some f -> (cost, match f s cost with Ok () -> None | Error m -> Some m))

(* ---- layer bookkeeping for traced runs ---- *)

type layers = {
  tr : Trace.t;
  mutable rounds : int;
  mutable shards : int;
  mutable cached : int;
  mutable resolved : int;
  mutable approx : int;
  mutable active : int;
  mutable width : int;
  mutable solve_ms : float;
  mutable request_ms : float;
  mutable req_self : float list;
  mutable commit_self : float list;
  mutable tombstone : float list;
  mutable journal_bytes : int list;
  mutable snapshot_bytes : int list;
  mutable full_write_commit : float list;
  mutable mismatches : int;
  mutable first_mismatch : string option;
}

let new_layers () =
  { tr = Trace.create (); rounds = 0; shards = 0; cached = 0; resolved = 0; approx = 0; active = 0;
    width = 0; solve_ms = 0.0; request_ms = 0.0; req_self = []; commit_self = []; tombstone = [];
    journal_bytes = []; snapshot_bytes = []; full_write_commit = []; mismatches = 0;
    first_mismatch = None }

let mismatch ly msg =
  ly.mismatches <- ly.mismatches + 1;
  if ly.first_mismatch = None then ly.first_mismatch <- Some msg

let shadow ly ~parent ~round name f =
  let r, _, ms = Trace.span ~shadow:true ly.tr ~name ~parent ~round f in
  (r, ms)

let class_name = function
  | D.Planner.Exact_small -> "solver.exact_small"
  | D.Planner.Exact_forest -> "solver.exact_forest"
  | D.Planner.Approximate -> "solver.approx"

(* Shadow of [Engine.request]: the same public steps on the pre-request
   index — re-target, active-component lookup, a fingerprint per spliced
   shard, and materialize + a standalone [Planner.solve] per re-solved
   shard — checked against the plan the engine returned. *)
let shadow_request ly ~parent ~round ~domains ~request_ms (prov, arena, cindex) requests
    (plan : E.plan) =
  let sh name f = shadow ly ~parent ~round name f in
  let prov', t_prov = sh "provenance.retarget" (fun () -> D.Provenance.with_deletions prov requests) in
  let arena', t_arena = sh "arena.retarget" (fun () -> D.Arena.with_deletions arena prov') in
  let protos, t_active = sh "component_index.active" (fun () -> D.Component_index.active cindex arena') in
  let by_comp = Hashtbl.create 64 in
  Array.iter (fun (p : D.Arena.proto_shard) -> Hashtbl.replace by_comp p.D.Arena.p_component p) protos;
  let shards = plan.E.shards in
  if List.length shards <> Array.length protos
     || List.exists (fun (d : D.Planner.shard_decision) -> not (Hashtbl.mem by_comp d.D.Planner.component)) shards
  then mismatch ly "shadow active components differ from the plan's shards";
  let t_fp = ref 0.0 and t_work = ref 0.0 and resolved = ref 0 and approx = ref 0 in
  List.iter
    (fun (d : D.Planner.shard_decision) ->
      match Hashtbl.find_opt by_comp d.D.Planner.component with
      | None -> ()
      | Some ps ->
        if d.D.Planner.cached then begin
          let fp, ms = sh "fingerprint.shard" (fun () -> D.Fingerprint.shard arena' ps) in
          t_fp := !t_fp +. ms;
          if d.D.Planner.fingerprint <> Some fp then mismatch ly "spliced shard fingerprint differs"
        end
        else begin
          incr resolved;
          if d.D.Planner.classification = D.Planner.Approximate then incr approx;
          let shard, t_mat = sh "arena.materialize" (fun () -> D.Arena.materialize arena' ps) in
          if Array.length ps.D.Arena.p_sids <> d.D.Planner.stuples
             || Array.length ps.D.Arena.p_vids <> d.D.Planner.vtuples
          then mismatch ly "re-solved shard size differs";
          let rep, t_solve =
            sh (class_name d.D.Planner.classification) (fun () ->
                D.Planner.solve ~domains:1 shard.D.Arena.arena)
          in
          (match rep.D.Planner.shards with
          | [ d' ] ->
            if d'.D.Planner.classification <> d.D.Planner.classification then
              mismatch ly "re-solved shard classified differently";
            if d.D.Planner.exact && Float.abs (d'.D.Planner.cost -. d.D.Planner.cost) > 1e-9 then
              mismatch ly "exact shard cost differs"
          | _ -> mismatch ly "standalone shard did not solve as one shard");
          t_work := !t_work +. t_mat +. t_solve;
          ly.solve_ms <- ly.solve_ms +. t_mat +. t_solve
        end)
    shards;
  (* re-solved shards fan out over the pool: charge their critical path *)
  let width = if !resolved >= 2 then min domains !resolved else min 1 !resolved in
  ly.width <- ly.width + width;
  ly.shards <- ly.shards + List.length shards;
  ly.cached <- ly.cached + plan.E.shards_cached;
  ly.resolved <- ly.resolved + !resolved;
  ly.approx <- ly.approx + !approx;
  ly.active <- ly.active + Array.length protos;
  ly.request_ms <- ly.request_ms +. request_ms;
  let work = if width > 0 then !t_work /. float_of_int width else 0.0 in
  ly.req_self <- (request_ms -. t_prov -. t_arena -. t_active -. !t_fp -. work) :: ly.req_self

(* Shadow of a commit: the index patches [Engine.apply_delta] makes,
   replayed on the pre-commit index, plus the view rebuild and a journal
   append to a throwaway journal. Returns the shadow's arena and component
   index for comparison with the engine's, and the shadowed ms. *)
let shadow_commit ly ~parent ~round ~queries ?journal (prov, arena, cindex) (applied : D.Delta.t) =
  let sh name f = shadow ly ~parent ~round name f in
  let dd = applied.D.Delta.deletes and ins = applied.D.Delta.inserts in
  let total = ref 0.0 in
  let sh' name f = let r, ms = sh name f in total := !total +. ms; r in
  let prov, arena, cindex =
    if R.Stuple.Set.is_empty dd then (prov, arena, cindex)
    else
      let prov' = sh' "provenance.delete" (fun () -> D.Provenance.delete prov dd) in
      let arena' = sh' "arena.delete" (fun () -> D.Arena.delete arena ~dd prov') in
      let cindex' =
        sh' "component_index.delete" (fun () -> D.Component_index.delete cindex ~before:arena ~dd arena')
      in
      (prov', arena', cindex')
  in
  let prov, arena, cindex =
    if R.Stuple.Set.is_empty ins then (prov, arena, cindex)
    else
      let prov' =
        sh' "provenance.insert" (fun () -> R.Stuple.Set.fold (fun st p -> D.Provenance.insert p st) ins prov)
      in
      let arena, cindex =
        if D.Arena.tombstoned arena && not (D.Arena.can_extend_in_place arena ~ins prov') then
          sh' "arena.compact" (fun () ->
              (D.Arena.compact arena, D.Component_index.compact cindex ~before:arena))
        else (arena, cindex)
      in
      let arena' = sh' "arena.extend" (fun () -> D.Arena.extend arena ~ins prov') in
      let cindex' = sh' "component_index.insert" (fun () -> D.Component_index.insert cindex ~before:arena arena') in
      (prov', arena', cindex')
  in
  ignore
    (sh' "matview.rebuild" (fun () ->
         D.Matview.of_views prov.D.Provenance.problem.D.Problem.db queries prov.D.Provenance.views));
  (match journal with
  | Some w ->
    sh' "journal.append" (fun () ->
        E.Journal.append w (E.Journal.Delta { deletes = dd; inserts = ins }))
  | None -> ());
  (arena, cindex, !total)

let compare_commit ly eng (arena, cindex) =
  let _, arena_e = E.index eng in
  if D.Arena.live_stuples arena <> D.Arena.live_stuples arena_e then
    mismatch ly "shadow live tuple count differs";
  if (D.Component_index.partition cindex).D.Arena.num_components
     <> (D.Component_index.partition (E.component_index eng)).D.Arena.num_components
  then mismatch ly "shadow component count differs"

let state eng =
  let prov, arena = E.index eng in
  (prov, arena, E.component_index eng)

(* ---- sessions ---- *)

type env = {
  wl : workload;
  s : Gen.script;
  checker : Check.t;
  dir : string;  (* this run's session files *)
  domains : int;
  shadow_journal : E.Journal.writer option;  (* traced edit_churn: throwaway journal *)
}

let journal_path env = Filename.concat env.dir "journal"
let snapshot_path env = Filename.concat env.dir "snapshot"

let create ?ly env ?(recover = false) () =
  let go () =
    match env.wl.name with
    | "edit_churn" ->
      E.create ~plan:true ~domains:env.domains ~journal:(journal_path env)
        ~snapshot:(snapshot_path env) ~fsync:false env.s.Gen.db env.s.Gen.queries
    | "restart_tail" ->
      E.create ~plan:true ~domains:env.domains ~journal:(journal_path env)
        ~snapshot:(snapshot_path env) ~segment_bytes:1024 ~recover env.s.Gen.db env.s.Gen.queries
    | _ -> E.create ~plan:true ~domains:env.domains env.s.Gen.db env.s.Gen.queries
  in
  match ly with
  | Some ly ->
    let eng, _, _ = Trace.span ly.tr ~name:"engine.create" ~parent:0 ~round:(-1) go in
    eng
  | None -> go ()

let play eng (r : Gen.round) =
  if not (D.Delta.is_empty r.Gen.delta) then ignore (E.apply_delta eng r.Gen.delta);
  if r.Gen.requests <> [] then
    match E.request eng r.Gen.requests with
    | Ok _ -> ()
    | Error e -> failwith ("warm-up request failed: " ^ D.Delta_request.error_to_string e)

(* Set-up: a fresh session plus its cache-filling warm-up; for
   restart_tail the seeding of the journal, its sealed segments and the
   snapshot, kept in memory as the pristine files every restart starts
   from. Returns the live session (none for restart_tail), the files and
   the set-up seconds. *)
let setup ?ly env =
  Gc.compact ();
  clear_dir env.dir;
  let t0 = now () in
  let eng = create ?ly env () in
  Array.iter (play eng) env.s.Gen.warm;
  if env.wl.name = "restart_tail" then begin
    E.close eng;
    let cold =
      E.create ~plan:true ~domains:env.domains ~journal:(journal_path env) ~segment_bytes:1024
        ~recover:true env.s.Gen.db env.s.Gen.queries
    in
    Array.iter (play cold) env.s.Gen.tail;
    E.close cold;
    let files = Array.to_list (Array.map (fun f -> (f, read_file (Filename.concat env.dir f))) (Sys.readdir env.dir)) in
    (None, files, now () -. t0)
  end
  else (Some eng, [], now () -. t0)

let restore env files =
  clear_dir env.dir;
  List.iter (fun (f, data) -> write_file (Filename.concat env.dir f) data) files

(* ---- the measured phase ---- *)

let checked n i = i mod 10 = 0 || i = n - 1

let check_answer env ~removed ~requests ~last =
  fun (s : D.Solution.t) cost ->
  let deleted = s.D.Solution.deleted in
  match Check.check env.checker ~removed ~requests ~deleted ~cost with
  | Error _ as e -> e
  | Ok () ->
    if last && not (Check.check_full env.checker ~gone:(R.Stuple.Set.union removed deleted)) then
      Error "views re-evaluated on D \\ ΔD disagree"
    else Ok ()

let model_check env eng (r : Gen.round) =
  let expect = R.Instance.size env.s.Gen.db - R.Stuple.Set.cardinal r.Gen.removed in
  if R.Instance.size (E.db eng) <> expect then Some "database size differs from the script's model"
  else None

(* A session round: commit the scripted delta, then propose. *)
let session_round ?ly env acc eng i (r : Gen.round) =
  let n = Array.length env.s.Gen.rounds in
  let started = now () in
  let problem = ref None in
  let note m = if !problem = None then problem := Some m in
  let commit () =
    if D.Delta.is_empty r.Gen.delta then ()
    else begin
      let pre = Option.map (fun _ -> state eng) ly in
      let ino () = try (Unix.stat (snapshot_path env)).Unix.st_ino with Unix.Unix_error _ -> -1 in
      let size () = try (Unix.stat (snapshot_path env)).Unix.st_size with Unix.Unix_error _ -> 0 in
      let ino0 = if ly <> None && env.wl.name = "edit_churn" then ino () else 0 in
      let size0 = if ly <> None && env.wl.name = "edit_churn" then size () else 0 in
      let jb0 = if ly <> None && env.wl.name = "edit_churn" then file_bytes env.dir "journal" else 0 in
      let applied, id, ms =
        real ?tr:(Option.map (fun l -> l.tr) ly) ~name:"engine.commit" ~round:i acc (fun () ->
            E.apply_delta eng r.Gen.delta)
      in
      if D.Delta.cardinal applied <> D.Delta.cardinal r.Gen.delta then note "commit skipped tuples";
      match (ly, pre) with
      | Some ly, Some pre ->
        let arena, cindex, t_shadow =
          shadow_commit ly ~parent:id ~round:i ~queries:env.s.Gen.queries ?journal:env.shadow_journal
            pre applied
        in
        compare_commit ly eng (arena, cindex);
        let t_snap =
          if env.wl.name = "edit_churn" then begin
            ly.journal_bytes <- (file_bytes env.dir "journal" - jb0) :: ly.journal_bytes;
            let full = ino () <> ino0 in
            ly.snapshot_bytes <- (if full then size () else size () - size0) :: ly.snapshot_bytes;
            if full then begin
              ly.full_write_commit <- ms :: ly.full_write_commit;
              match E.Snapshot.load (snapshot_path env) with
              | Ok (snap, _) ->
                snd (shadow ly ~parent:id ~round:i "snapshot.write" (fun () ->
                    E.Snapshot.write (Filename.concat env.dir "shadow-snapshot") snap))
              | Error _ -> mismatch ly "snapshot unreadable after a full write"; 0.0
            end
            else 0.0
          end
          else 0.0
        in
        ly.commit_self <- (ms -. t_shadow -. t_snap) :: ly.commit_self
      | _ -> ()
    end
  in
  commit ();
  if r.Gen.requests <> [] then begin
    let pre = Option.map (fun _ -> state eng) ly in
    let res, id, ms =
      real ?tr:(Option.map (fun l -> l.tr) ly) ~name:"engine.request" ~round:i acc (fun () ->
          E.request eng r.Gen.requests)
    in
    (match (ly, pre, res) with
    | Some ly, Some pre, Ok plan ->
      shadow_request ly ~parent:id ~round:i ~domains:env.domains ~request_ms:ms pre r.Gen.requests plan
    | _ -> ());
    let check =
      if checked n i then
        Some (check_answer env ~removed:r.Gen.removed ~requests:r.Gen.requests ~last:(i = n - 1))
      else None
    in
    let cost, err = judge ?check res in
    acc.cost <- acc.cost +. cost;
    Option.iter note err
  end;
  if checked n i then Option.iter note (model_check env eng r);
  if heap_sampled n i then sample_heap acc;
  (match ly with
  | Some ly ->
    ly.rounds <- ly.rounds + 1;
    ly.tombstone <- (E.stats eng).E.tombstone_ratio :: ly.tombstone
  | None -> ());
  end_round acc ~started;
  Option.iter (fail acc) !problem

(* A restart round: recover from the pristine files, ask the first
   request, close. Traced runs also time the snapshot and journal loads
   on the same files. *)
let restart_round ?ly env acc files i (r : Gen.round) ~expected_records =
  let n = Array.length env.s.Gen.rounds in
  restore env files;
  let started = now () in
  let tr = Option.map (fun l -> l.tr) ly in
  let eng, id_recover, _ =
    real ?tr ~name:"engine.recover" ~round:i acc (fun () -> create env ~recover:true ())
  in
  let pre = Option.map (fun _ -> state eng) ly in
  let res, id_request, ms =
    real ?tr ~name:"engine.request" ~round:i acc (fun () -> E.request eng r.Gen.requests)
  in
  let stats = E.stats eng in
  if heap_sampled n i then sample_heap acc;
  ignore (real ?tr ~name:"engine.close" ~round:i acc (fun () -> E.close eng));
  (match (ly, pre, res) with
  | Some ly, Some pre, Ok plan ->
    shadow_request ly ~parent:id_request ~round:i ~domains:env.domains ~request_ms:ms pre
      r.Gen.requests plan;
    ly.rounds <- ly.rounds + 1;
    restore env files;
    (match
       fst (shadow ly ~parent:id_recover ~round:i "snapshot.load" (fun () ->
           E.Snapshot.load (snapshot_path env)))
     with
    | Ok (snap, _) -> (
      match
        fst (shadow ly ~parent:id_recover ~round:i "journal.load" (fun () ->
            E.Journal.load_from ~repair:false ~position:snap.E.Snapshot.position (journal_path env)))
      with
      | Ok _ -> ()
      | Error _ -> mismatch ly "pristine journal unreadable")
    | Error _ -> mismatch ly "pristine snapshot unreadable")
  | _ -> ());
  let problem =
    match stats.E.snapshot with
    | E.Warm _ when stats.E.recovered_records = expected_records -> None
    | E.Warm _ ->
      Some
        (Printf.sprintf "recovered %d records, seeded %d" stats.E.recovered_records expected_records)
    | _ -> Some "restart did not come back warm"
  in
  let check =
    if checked n i then
      Some (check_answer env ~removed:r.Gen.removed ~requests:r.Gen.requests ~last:(i = n - 1))
    else None
  in
  let cost, err = judge ?check res in
  acc.cost <- acc.cost +. cost;
  let model = if checked n i then model_check env eng r else None in
  end_round acc ~started;
  match (problem, err, model) with
  | Some m, _, _ | None, Some m, _ | None, None, Some m -> fail acc m
  | None, None, None -> ()

(* ---- metrics ---- *)

let json_num x = if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

let metric (name, unit_, value) =
  Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_num value) unit_

(* ---- machine-speed calibration ----

   On a shared 2-vCPU Xeon VM the machine's speed drifts by up to 1.6x
   over a few seconds (other tenants share the cores), and raw latencies
   drift with it: the same seed's p50 moved by 30% between back-to-back
   processes. So a small fixed kernel runs between rounds, whenever
   [calibrate_s] of the run has passed, outside the timed region, and
   every end-to-end time is scaled by [kernel_ref_ms] over the kernel
   time measured around it — it reads as it would on a machine where
   the kernel takes [kernel_ref_ms]. The raw figures and the kernel's
   median go to the metadata line.

   The kernel allocates nothing on the OCaml heap: it works in arrays
   allocated once at start-up, so it neither feeds nor triggers the
   collector, and a change in the engine's collection behaviour moves
   the engine's times without moving the divisor. *)

let kernel_ref_ms = 20.0

let calibrate_s = 0.1

let k_nodes = 65_536
let k_key = Array.make k_nodes 0
let k_left = Array.make k_nodes (-1)
let k_right = Array.make k_nodes (-1)

(* a 64k-key binary search tree built in the preallocated arrays:
   random pointer-chasing over 1.5 MB, like the engine's map and table
   walks ([Array.sort] would allocate: its heap sort raises an exception
   per sift) *)
let kernel_ms () =
  let t0 = now () in
  Array.fill k_left 0 k_nodes (-1);
  Array.fill k_right 0 k_nodes (-1);
  let x = ref 88172645463325252 in
  for i = 0 to k_nodes - 1 do
    (* xorshift keys: a tree of expected depth O(log n) *)
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17);
    let k = !x in
    k_key.(i) <- k;
    let j = ref 0 in
    while i > 0 && !j >= 0 do
      let side = if k < k_key.(!j) then k_left else k_right in
      let c = side.(!j) in
      if c < 0 then begin
        side.(!j) <- i;
        j := -1
      end
      else j := c
    done
  done;
  (now () -. t0) *. 1000.0

(* round [i]'s scale: the median of the five kernel samples nearest the
   last one taken before it ([kernel_of.(i)]) *)
let scales kernels kernel_of =
  let k = Array.of_list kernels in
  let m = Array.length k in
  Array.map
    (fun j ->
      let w = List.filter (fun x -> x >= 0 && x < m) [ j - 2; j - 1; j; j + 1; j + 2 ] in
      kernel_ref_ms /. median (List.map (fun x -> k.(x)) w))
    kernel_of

(* the round latencies, each scaled to the reference machine speed *)
let scaled acc scale = List.mapi (fun i ms -> ms *. scale.(i)) (List.rev acc.lat)

let end_to_end ~setup_s acc ~rounds ~lat =
  let n = float_of_int rounds in
  [
    ("setup_s", "s", setup_s);
    ("rounds_per_s", "1/s", n /. (sum lat /. 1000.0));
    ("round_p50_ms", "ms", median lat);
    ("round_p95_ms", "ms", quantile lat 0.95);
    ("alloc_kw_per_round", "kw", acc.words /. n /. 1000.0);
    ("peak_heap_mb", "MB", float_of_int ((acc.heap - acc.heap_base) * (Sys.word_size / 8)) /. 1048576.0);
    ("cost_per_round", "count", acc.cost /. n);
    ("ok_share", "ratio", (n -. float_of_int acc.failed) /. n);
  ]

let per_layer ly acc ~stats0 ~stats1 ~lat =
  let tr = ly.tr in
  let med name = median (Trace.durations tr name) in
  let per_round x = if ly.rounds = 0 then 0.0 else x /. float_of_int ly.rounds in
  let per_kround x = per_round (1000.0 *. x) in
  let d f = float_of_int (f stats1 - f stats0) in
  let commits = List.length ly.journal_bytes in
  let per_commit l = if commits = 0 then 0.0 else float_of_int (List.fold_left ( + ) 0 l) /. float_of_int commits in
  [
    ("engine.commit_ms", "ms", med "engine.commit");
    ("engine.commit_self_ms", "ms", median ly.commit_self);
    ("engine.request_ms", "ms", med "engine.request");
    ("engine.request_self_ms", "ms", median ly.req_self);
    ("engine.create_s", "s", med "engine.create" /. 1000.0);
    ("engine.recover_ms", "ms", med "engine.recover");
    ("provenance.delete_ms", "ms", med "provenance.delete");
    ("provenance.insert_ms", "ms", med "provenance.insert");
    ("provenance.retarget_ms", "ms", med "provenance.retarget");
    ("arena.delete_ms", "ms", med "arena.delete");
    ("arena.extend_ms", "ms", med "arena.extend");
    ("arena.retarget_ms", "ms", med "arena.retarget");
    ("arena.materialize_ms", "ms", med "arena.materialize");
    ("arena.compactions_per_kround", "count", per_kround (d (fun s -> s.E.compactions)));
    ("arena.tombstone_ratio", "ratio", mean ly.tombstone);
    ("component_index.delete_ms", "ms", med "component_index.delete");
    ("component_index.insert_ms", "ms", med "component_index.insert");
    ("component_index.active_us", "us", 1000.0 *. med "component_index.active");
    ("component_index.active_per_round", "count", per_round (float_of_int ly.active));
    ("fingerprint.shard_us", "us", 1000.0 *. med "fingerprint.shard");
    ("planner.hit_ratio", "ratio", if ly.shards = 0 then 0.0 else float_of_int ly.cached /. float_of_int ly.shards);
    ("planner.resolved_per_round", "count", per_round (float_of_int ly.resolved));
    ("planner.fragment_reuses_per_kround", "count", per_kround (d (fun s -> s.E.fragment_reuses)));
    ("solver.exact_small_ms", "ms", med "solver.exact_small");
    ("solver.exact_forest_ms", "ms", med "solver.exact_forest");
    ("solver.approx_ms", "ms", med "solver.approx");
    ("solver.approx_shards_per_round", "count", per_round (float_of_int ly.approx));
    ("par.width_per_round", "count", per_round (float_of_int ly.width));
    ("par.speedup", "ratio", if ly.request_ms = 0.0 then 0.0 else ly.solve_ms /. ly.request_ms);
    ("matview.rebuild_ms", "ms", med "matview.rebuild");
    ("journal.append_ms", "ms", med "journal.append");
    ("journal.bytes_per_commit", "B", per_commit ly.journal_bytes);
    ("journal.load_ms", "ms", med "journal.load");
    ("snapshot.bytes_per_commit", "B", per_commit ly.snapshot_bytes);
    ("snapshot.full_write_commit_ms", "ms", median ly.full_write_commit);
    ("snapshot.write_ms", "ms", med "snapshot.write");
    ("snapshot.load_ms", "ms", med "snapshot.load");
    ("gc.minor_per_round", "count", per_round (float_of_int acc.minor));
    ("gc.major_per_round", "count", per_round (float_of_int acc.major));
    (* scaled as the untraced round_p50_ms is: tracing's overhead is
       the difference of the two *)
    ("trace.round_p50_ms", "ms", median lat);
    (* the shadows and answer checks a traced round adds around the real calls *)
    ("trace.shadow_ms", "ms", median acc.wall -. median acc.lat);
    ("trace.shadow_mismatches", "count", float_of_int ly.mismatches);
  ]

(* ---- one run ---- *)

type outcome = {
  metrics : (string * string * float) list;
  attempted : int;
  failed : int;
  errors : string list;
  meta : (string * string) list;
}

let run ~wl ~seed ~seconds ~trace ~domains =
  let rounds = max 200 (wl.rounds_at_10s * seconds / 10) in
  let s = script wl ~seed ~rounds in
  let digest = Gen.digest s in
  let checker = Check.build s.Gen.db s.Gen.queries in
  let dir = Filename.concat out (Printf.sprintf "%s-%d" wl.name (Unix.getpid ())) in
  mkdir_p dir;
  let shadow_journal =
    if trace && wl.name = "edit_churn" then begin
      let p = Filename.concat dir "shadow-journal" in
      Some (E.Journal.open_writer ~fsync:false p)
    end
    else None
  in
  let env = { wl; s; checker; dir; domains; shadow_journal } in
  let ly = if trace then Some (new_layers ()) else None in
  let acc = new_acc () in
  Gc.compact ();
  acc.heap_base <- live_words ();
  (* set up several times, each scaled by the kernels around it;
     measure on the last one *)
  let last = ref (None, []) and raw = ref [] and setup_scaled = ref [] in
  for k = 1 to setups do
    Option.iter E.close (fst !last);
    last := (None, []);
    let before = List.init 3 (fun _ -> kernel_ms ()) in
    let eng, files, secs = setup ?ly:(if k = setups then ly else None) env in
    let around = before @ List.init 3 (fun _ -> kernel_ms ()) in
    last := (eng, files);
    raw := secs :: !raw;
    setup_scaled := (secs *. kernel_ref_ms /. median around) :: !setup_scaled
  done;
  let eng, files = !last in
  let setup_s = median !setup_scaled and raw_setup_s = median !raw in
  let stats_of = function Some e -> E.stats e | None -> E.Stats.zero in
  let stats0 = stats_of eng in
  Gc.compact ();
  (* restart_tail holds no session between rounds, only its pristine files *)
  if eng = None then acc.heap_base <- live_words ();
  let expected_records = Array.length s.Gen.warm - 1 + Array.length s.Gen.tail in
  let kernels = ref [] and last_kernel = ref 0.0 in
  let kernel_of = Array.make rounds 0 in
  Array.iteri
    (fun i r ->
      if i = 0 || now () -. !last_kernel >= calibrate_s then begin
        kernels := kernel_ms () :: !kernels;
        last_kernel := now ()
      end;
      kernel_of.(i) <- List.length !kernels - 1;
      match eng with
      | Some eng -> session_round ?ly env acc eng i r
      | None -> restart_round ?ly env acc files i r ~expected_records)
    s.Gen.rounds;
  let stats1 = stats_of eng in
  Option.iter E.close eng;
  Option.iter E.Journal.close_writer shadow_journal;
  clear_dir dir;
  Sys.rmdir dir;
  let lat = scaled acc (scales (List.rev !kernels) kernel_of) in
  let metrics, mismatches =
    match ly with
    | None -> (end_to_end ~setup_s acc ~rounds ~lat, 0)
    | Some ly ->
      let base = Filename.concat out (Printf.sprintf "trace-%s-seed%d" wl.name seed) in
      Trace.write_jsonl ly.tr (base ^ ".jsonl");
      Trace.write_summary ly.tr (base ^ "-summary.json");
      (per_layer ly acc ~stats0 ~stats1 ~lat, ly.mismatches)
  in
  let errors =
    acc.errors
    @ match ly with Some { first_mismatch = Some m; _ } -> [ "shadow: " ^ m ] | _ -> []
  in
  {
    metrics;
    attempted = rounds;
    failed = acc.failed + (if mismatches > 0 then 1 else 0);
    errors;
    meta =
      [
        ("workload", Printf.sprintf "%S" wl.name);
        ("seed", string_of_int seed);
        ("script_digest", Printf.sprintf "%S" digest);
        ("rounds", string_of_int rounds);
        ("warm_rounds", string_of_int (Array.length s.Gen.warm));
        ("domains", string_of_int domains);
        ("ocaml", Printf.sprintf "%S" Sys.ocaml_version);
        ("nproc", string_of_int (Domain.recommended_domain_count ()));
        ("setup_runs", string_of_int setups);
        ("kernels", string_of_int (List.length !kernels));
        ("kernel_median_ms", json_num (median !kernels));
        ("raw_setup_s", json_num raw_setup_s);
        ("raw_round_p50_ms", json_num (median acc.lat));
        ("raw_round_p95_ms", json_num (quantile acc.lat 0.95));
        ("source_tuples", string_of_int (R.Instance.size s.Gen.db));
      ];
  }

let print_result o ~git_rev =
  Printf.printf "meta: {%s}\n"
    (String.concat ", "
       (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) (("git_rev", Printf.sprintf "%S" git_rev) :: o.meta)));
  List.iter (fun e -> Printf.printf "error: %s\n" e) o.errors;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (o.failed = 0) o.attempted o.failed
    (String.concat ", " (List.map metric o.metrics))

(* alloc_kw_per_round on approx_blocks must not depend on the pool
   size: Gc.quick_stat counts every domain's allocation, where a
   per-domain counter (Gc.minor_words) misses the workers' 40%. The
   pool's sequential and parallel paths themselves differ by ~0.15%. *)
let selftest ~seed =
  let wl = List.find (fun w -> w.name = "approx_blocks") workloads in
  let alloc domains =
    let o = run ~wl ~seed ~seconds:2 ~trace:false ~domains in
    let _, _, v = List.find (fun (n, _, _) -> n = "alloc_kw_per_round") o.metrics in
    v
  in
  let a1 = alloc 1 and a2 = alloc 2 in
  let rel = Float.abs (a1 -. a2) /. a1 in
  Printf.printf "selftest: alloc_kw_per_round domains=1 %.3f, domains=2 %.3f, difference %.4f%%\n" a1 a2
    (100.0 *. rel);
  if rel > 0.005 then exit 1

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let git_rev = ref "unknown" and self = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME whatif_skew|edit_churn|approx_blocks|restart_tail");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S run length; fixes the round count");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
      ("--git-rev", Arg.Set_string git_rev, "REV recorded in the run metadata");
      ("--selftest", Arg.Set self, " check allocation accounting across pool sizes");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "replay.exe --workload NAME --seed N --seconds S --trace 0|1";
  mkdir_p out;
  if !self then selftest ~seed:!seed
  else
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | None ->
      prerr_endline ("unknown workload: " ^ !workload);
      exit 2
    | Some wl ->
      let o =
        run ~wl ~seed:!seed ~seconds:(max 1 !seconds) ~trace:(!trace = 1) ~domains:wl.domains in
      print_result o ~git_rev:!git_rev
