module R = Relational
module D = Deleprop

let src = Logs.Src.create "deleprop.engine" ~doc:"Incremental propagation engine"

module Log = (val Logs.src_log src : Logs.LOG)

(* Did the shard cache survive the crash? Stamped once, at [create];
   [Degraded] carries the typed reason re-warming fell through — always
   a warning, never a failed recovery. *)
type snapshot_status =
  | Cold
  | Warm of { entries : int; dropped : int }
  | Degraded of Snapshot.warning

let pp_snapshot_status ppf = function
  | Cold -> Format.pp_print_string ppf "cold"
  | Warm { entries; dropped } ->
    Format.fprintf ppf "warm (%d entr%s re-warmed%s)" entries
      (if entries = 1 then "y" else "ies")
      (if dropped = 0 then "" else Printf.sprintf ", %d dropped" dropped)
  | Degraded w -> Format.fprintf ppf "degraded: %a" Snapshot.pp_warning w

let snapshot_status_to_json = function
  | Cold -> D.Report.Obj [ ("state", D.Report.String "cold") ]
  | Warm { entries; dropped } ->
    D.Report.Obj
      [
        ("state", D.Report.String "warm");
        ("entries", D.Report.Int entries);
        ("dropped", D.Report.Int dropped);
      ]
  | Degraded w ->
    D.Report.Obj
      [
        ("state", D.Report.String "degraded");
        ("reason", D.Report.String (Snapshot.warning_label w));
      ]

type stats = {
  rounds : int;
  applies : int;
  tuples_deleted : int;
  tuples_inserted : int;
  patches : int;
  index_retargets : int;
  last_solve_ms : float;
  total_solve_ms : float;
  journal_records : int;
  recovered_records : int;
  components : int;
  shards_solved : int;
  shards_exact : int;
  shards_approx : int;
  shards_cached : int;
  shards_resolved : int;
  shard_cache_hits : int;
  fragment_reuses : int;
  fragment_reuses_exact : int;
  fragment_reuses_forest : int;
  fragment_reuses_approx : int;
  tombstone_ratio : float;
  compactions : int;
  snapshot : snapshot_status;
}

let zero_stats =
  {
    rounds = 0;
    applies = 0;
    tuples_deleted = 0;
    tuples_inserted = 0;
    patches = 0;
    index_retargets = 0;
    last_solve_ms = 0.0;
    total_solve_ms = 0.0;
    journal_records = 0;
    recovered_records = 0;
    components = 0;
    shards_solved = 0;
    shards_exact = 0;
    shards_approx = 0;
    shards_cached = 0;
    shards_resolved = 0;
    shard_cache_hits = 0;
    fragment_reuses = 0;
    fragment_reuses_exact = 0;
    fragment_reuses_forest = 0;
    fragment_reuses_approx = 0;
    tombstone_ratio = 0.0;
    compactions = 0;
    snapshot = Cold;
  }

let pp_stats ppf s =
  Format.fprintf ppf
    "@[<v>rounds: %d, applies: %d@ deleted %d / inserted %d source tuple(s)@ index: \
     %d patch(es), %d retarget(s), %d component(s)@ tombstones: ratio %.3f, %d \
     compaction(s)@ solve: last %.2f ms, total %.2f ms@ planner: %d shard(s) \
     solved, %d exact, %d approximate, %d cached / %d resolved (%d lifetime \
     cache hit(s), %d fragment reuse(s): %d exact / %d forest / %d approx)@ \
     journal: %d record(s) appended, %d recovered@ snapshot: %a@]"
    s.rounds s.applies s.tuples_deleted s.tuples_inserted s.patches
    s.index_retargets s.components s.tombstone_ratio s.compactions
    s.last_solve_ms s.total_solve_ms s.shards_solved s.shards_exact s.shards_approx
    s.shards_cached s.shards_resolved s.shard_cache_hits s.fragment_reuses
    s.fragment_reuses_exact s.fragment_reuses_forest s.fragment_reuses_approx
    s.journal_records s.recovered_records pp_snapshot_status s.snapshot

(* The typed reporting surface: [Stats.t] is the stats record itself,
   plus its one printer and the one JSON encoding every front end
   shares. The deprecated alias spellings [index_hits] / [cache_hits]
   served their one promised release (schema version 2) and are gone as
   of version 3 — [index_retargets] is the only name. *)
module Stats = struct
  type t = stats

  let zero = zero_stats
  let pp = pp_stats

  let to_json (s : t) =
    D.Report.Obj
      [
        ("rounds", D.Report.Int s.rounds);
        ("applies", D.Report.Int s.applies);
        ("tuples_deleted", D.Report.Int s.tuples_deleted);
        ("tuples_inserted", D.Report.Int s.tuples_inserted);
        ("patches", D.Report.Int s.patches);
        ("index_retargets", D.Report.Int s.index_retargets);
        ("last_solve_ms", D.Report.Raw (Printf.sprintf "%.3f" s.last_solve_ms));
        ("total_solve_ms", D.Report.Raw (Printf.sprintf "%.3f" s.total_solve_ms));
        ("journal_records", D.Report.Int s.journal_records);
        ("recovered_records", D.Report.Int s.recovered_records);
        ("components", D.Report.Int s.components);
        ("shards_solved", D.Report.Int s.shards_solved);
        ("shards_exact", D.Report.Int s.shards_exact);
        ("shards_approx", D.Report.Int s.shards_approx);
        ("shards_cached", D.Report.Int s.shards_cached);
        ("shards_resolved", D.Report.Int s.shards_resolved);
        ("shard_cache_hits", D.Report.Int s.shard_cache_hits);
        ("fragment_reuses", D.Report.Int s.fragment_reuses);
        ("fragment_reuses_exact", D.Report.Int s.fragment_reuses_exact);
        ("fragment_reuses_forest", D.Report.Int s.fragment_reuses_forest);
        ("fragment_reuses_approx", D.Report.Int s.fragment_reuses_approx);
        ( "tombstone_ratio",
          D.Report.Raw (Printf.sprintf "%.3f" s.tombstone_ratio) );
        ("compactions", D.Report.Int s.compactions);
        ("snapshot", snapshot_status_to_json s.snapshot);
      ]
end

type plan = {
  requests : D.Delta_request.t list;
  solutions : D.Solution.t list;
  failures : D.Portfolio.failure list;
  degraded : bool;
  decomposed : bool;
  shards : D.Planner.shard_decision list;
  shards_cached : int;
}

type index = {
  arena : D.Arena.t;
      (* the live index: its rows, and the live database its problem
         carries; no Provenance map is built for it *)
  cindex : D.Component_index.t;
      (* the live component index: stable component ids, member rosters,
         solve memos and the shard cache's dirty bits, maintained with
         the arena on both sides of a delta — a commit re-labels only
         the components its delta reaches *)
}

type t = {
  weights : D.Weights.t option;
  exact_threshold : int option;
  algorithms : string list option;
  budget_ms : float option;
  journal_path : string option;
  snapshot_path : string option;
  snapshot_every : int;
      (* amortized snapshot policy: re-snapshot once this many records
         accumulate past the last one; ≤ 0 = checkpoint-only *)
  fsync : bool;
  segment_bytes : int option;
  pool : D.Par.Pool.t;
  mutable journal : Journal.writer option;
  mutable journal_len : int;
      (* records currently in the journal = the position a snapshot
         written now would record *)
  mutable last_snapshot_len : int;
      (* the position of the image the write policy counts from: the
         last one this session wrote or installed, 0 after a cold
         recovery *)
  mutable index : index;
  mutable stats : stats;
  shard_cache : D.Planner.cache option;
  mutable digest : D.Fingerprint.t option;
      (* [Fingerprint.digest] of [index.arena] — the snapshot coordinate,
         advanced per committed delta. [None] until the first snapshot
         write or install needs it, so sessions without [~snapshot]
         never pay the from-scratch pass *)
  mutable baseline : R.Stuple.Set.t * R.Stuple.Set.t;
      (* the live database as (gone, added) against the database
         [create] was given, advanced per committed delta: the checkpoint
         record and the snapshot baseline *)
  frames : Snapshot.frames;
      (* the entry frames of the last image written or loaded: a full
         image re-encodes only the entries replaced since *)
}

(* the tombstone ratio past which a commit compacts the live index *)
let compact_threshold = 0.5

(* the live database and its views are the live arena's own *)
let db t = t.index.arena.D.Arena.problem.D.Problem.db

(* ---- raw state transitions (no journaling — the public ops and
   journal replay all commit through [apply_delta_raw]) ---- *)

(* amortized compaction: gather the index's live slots (component ids,
   dirty bits and memos survive, see [Component_index.compact]); counted
   in [compactions] *)
let compact_index t =
  let ix = t.index in
  if D.Arena.tombstoned ix.arena then begin
    t.index <-
      {
        arena = D.Arena.compact ix.arena;
        cindex = D.Component_index.compact ix.cindex ~before:ix.arena;
      };
    t.stats <- { t.stats with compactions = t.stats.compactions + 1 }
  end

(* The part of a (deletes, inserts) delta that changes a database in
   which [mem] tells presence: deletes of present tuples, and inserts
   of absent tuples or of tuples the same delta deletes (a delete then
   re-insert). Live commits and journal replay both filter through it. *)
let effective ~mem deletes inserts =
  let dd = R.Stuple.Set.filter mem deletes in
  ( dd,
    R.Stuple.Set.filter
      (fun st -> R.Stuple.Set.mem st dd || not (mem st))
      inserts )

(* Apply a symmetric update, deletes first then inserts, each side
   patching the live index ([Arena.tombstone]/[Component_index.delete]
   and [Arena.insert]/[Component_index.insert]). Returns the subset
   actually applied: deletes of tuples already gone and inserts of
   tuples already present are skipped (a tuple both deleted and
   re-inserted counts on both sides — a journalled no-op, not a
   conflict). The session state commits only after both patches
   succeed, so a [Key_violation] or [Ambiguous_witness] raised
   mid-insert leaves it untouched.

   Deletes tombstone in place (O(touched) instead of O(‖D‖ + ‖V‖)),
   inserts resurrect dead slots when they can, and the index compacts
   only when the tombstone ratio crosses [compact_threshold] (or a
   merge-path insert / checkpoint forces it). *)
let apply_delta_raw t (delta : D.Delta.t) =
  let dd, ins =
    effective ~mem:(R.Instance.mem (db t)) delta.D.Delta.deletes
      delta.D.Delta.inserts
  in
  let ix = t.index in
  let arena, cindex =
    if R.Stuple.Set.is_empty dd then (ix.arena, ix.cindex)
    else begin
      let arena' = D.Arena.tombstone ix.arena ~dd in
      let cindex' =
        D.Component_index.delete ix.cindex ~before:ix.arena ~dd arena'
      in
      (* split-aware cache reuse: when the deletion shattered a memoized
         component and left a fragment's candidate neighborhood
         untouched, that fragment inherits the parent's cached answer by
         restriction and stays clean — only the touched fragments
         re-solve next round *)
      let cindex' =
        match t.shard_cache with
        | Some c ->
          D.Planner.seed_fragments c ~before:ix.arena ~before_index:ix.cindex
            ~dd ~after:arena' ~after_index:cindex'
        | None -> cindex'
      in
      (arena', cindex')
    end
  in
  let arena, cindex =
    if R.Stuple.Set.is_empty ins then (arena, cindex)
    else begin
      let before, arena' = D.Arena.insert arena ~ins in
      (* a merge-path insert compacts a tombstoned arena first: the
         component index compacts with it (ids survive) *)
      let cindex =
        if before == arena then cindex
        else D.Component_index.compact cindex ~before:arena
      in
      (arena', D.Component_index.insert cindex ~before arena')
    end
  in
  t.index <- { arena; cindex };
  t.digest <-
    Option.map
      (fun d -> D.Fingerprint.digest_delta d ~before:ix.arena ~dd ~after:arena ~ins)
      t.digest;
  t.baseline <- Snapshot.advance_baseline t.baseline ~deletes:dd ~inserts:ins;
  t.stats <-
    {
      t.stats with
      tuples_deleted = t.stats.tuples_deleted + R.Stuple.Set.cardinal dd;
      tuples_inserted = t.stats.tuples_inserted + R.Stuple.Set.cardinal ins;
      patches = (t.stats.patches + if R.Stuple.Set.is_empty dd then 0 else 1);
      components = D.Component_index.components cindex;
    };
  (* amortized trigger, off the per-round critical path until the dead
     fraction actually matters *)
  if D.Arena.tombstone_ratio t.index.arena > compact_threshold then
    compact_index t;
  { D.Delta.deletes = dd; inserts = ins }

(* returns the subset actually deleted (tuples already gone are
   skipped); only a commit that deleted something counts in [applies] *)
let commit_raw t dd =
  let dd = (apply_delta_raw t (D.Delta.of_deletes dd)).D.Delta.deletes in
  if not (R.Stuple.Set.is_empty dd) then
    t.stats <- { t.stats with applies = t.stats.applies + 1 };
  dd

(* a journal record's database delta, as (deletes, inserts) *)
let record_delta = function
  | Journal.Apply dd | Journal.Delete dd -> (dd, R.Stuple.Set.empty)
  | Journal.Insert st -> (R.Stuple.Set.empty, R.Stuple.Set.singleton st)
  | Journal.Delta { deletes; inserts } -> (deletes, inserts)

(* Commit journal records as their net delta: the index is a function
   of the database alone (DESIGN.md §9), so the records fold into one
   (gone, added) pair and one [apply_delta_raw] — a tuple deleted and
   re-inserted among them never reaches the index or its dirty bit.
   Each record is filtered against the running state through
   [effective], as a live delta is: journals written before no-op
   commits stopped being journaled still hold such records, which an
   unfiltered fold would cancel against their neighbours. [applies]
   counts as [commit_raw] does. Returns the folded delta. *)
let replay t records =
  let db = db t in
  let present (gone, added) st =
    R.Stuple.Set.mem st added
    || (R.Instance.mem db st && not (R.Stuple.Set.mem st gone))
  in
  let net =
    List.fold_left
      (fun net record ->
        let deletes, inserts = record_delta record in
        let dd, ins = effective ~mem:(present net) deletes inserts in
        (match record with
        | (Journal.Apply _ | Journal.Delete _)
          when not (R.Stuple.Set.is_empty dd) ->
          t.stats <- { t.stats with applies = t.stats.applies + 1 }
        | _ -> ());
        Snapshot.advance_baseline net ~deletes:dd ~inserts:ins)
      (R.Stuple.Set.empty, R.Stuple.Set.empty)
      records
  in
  let deletes, inserts = net in
  let delta = D.Delta.make ~deletes ~inserts () in
  if not (D.Delta.is_empty delta) then ignore (apply_delta_raw t delta);
  delta

(* what a recovery log line reports of its folded delta *)
let pp_folded ppf (d : D.Delta.t) =
  Format.fprintf ppf "%d delete(s) / %d insert(s)"
    (R.Stuple.Set.cardinal d.D.Delta.deletes)
    (R.Stuple.Set.cardinal d.D.Delta.inserts)

let digest t =
  match t.digest with
  | Some d -> d
  | None ->
    let d = D.Fingerprint.digest t.index.arena in
    t.digest <- Some d;
    d

(* Persist the shard cache's plain-data state, coordinates first: the
   journal position, the session's content digest, and the current
   dirty bits as canonical labels. [Snapshot.write] is an atomic
   replace under the session's fsync policy ({!Durable.replace}), so a
   crash mid-write leaves the previous snapshot intact — and stale
   coordinates merely degrade the next recovery to a cold cache. *)
let write_snapshot t =
  match (t.snapshot_path, t.shard_cache) with
  | Some spath, Some c ->
    (* the generation the recorded position belongs to: the open
       writer's, or — during a checkpoint, where the writer is closed
       and the snapshot precedes the [Journal.rewrite] — the bumped one
       the rewrite is about to stamp *)
    let generation =
      match (t.journal, t.journal_path) with
      | Some w, _ -> Journal.generation w
      | None, Some path -> Journal.current_gen path + 1
      | None, None -> 0
    in
    Snapshot.write ~frames:t.frames ~fsync:t.fsync spath
      {
        Snapshot.position = t.journal_len;
        generation;
        arena_fp = digest t;
        components = D.Component_index.components t.index.cindex;
        dirty = D.Component_index.dirty_labels t.index.cindex;
        stats = D.Planner.cache_stats c;
        baseline = t.baseline;
        entries = D.Planner.cache_entries c;
      };
    t.last_snapshot_len <- t.journal_len
  | _ -> ()

let journal_append t record =
  match t.journal with
  | None -> ()
  | Some w ->
    Journal.append w record;
    t.journal_len <- t.journal_len + 1;
    t.stats <- { t.stats with journal_records = t.stats.journal_records + 1 };
    if
      t.snapshot_path <> None && t.snapshot_every > 0
      && t.journal_len - t.last_snapshot_len >= t.snapshot_every
    then write_snapshot t

(* a checkpoint is the durable summary of the session so far: the
   journal's history folds into one record. The live index keeps its
   tombstones — the snapshot's coordinates (digest, component count,
   canonical labels) are layout-invariant, and recovery reaches the
   content through its own folded delta *)
let checkpoint t =
  match t.journal_path with
  | None -> ()
  | Some path ->
    (match t.journal with
    | Some w ->
      Journal.close_writer w;
      t.journal <- None
    | None -> ());
    (* a single symmetric record — deletes replay before inserts, so an
       update (same key, new tuple) drops the old row before its
       replacement lands *)
    let gone, added = t.baseline in
    let records = [ Journal.Delta { deletes = gone; inserts = added } ] in
    (* snapshot first, at the post-checkpoint position (1 record: the
       baseline delta) and the bumped generation, then the journal mark.
       A crash between the two leaves a snapshot whose generation names
       a journal that never landed: recovery replays the old journal
       cold, which is always correct. *)
    let len = t.journal_len in
    t.journal_len <- List.length records;
    (match write_snapshot t with
    | () -> ()
    | exception e ->
      (* the journal is untouched: reopen it where it was, or every
         later commit would return normally and never be journaled *)
      let bt = Printexc.get_raw_backtrace () in
      t.journal_len <- len;
      t.journal <-
        Some (Journal.open_writer ~fsync:t.fsync ?segment_bytes:t.segment_bytes path);
      Printexc.raise_with_backtrace e bt);
    Journal.rewrite ~fsync:t.fsync path records;
    t.journal <-
      Some (Journal.open_writer ~fsync:t.fsync ?segment_bytes:t.segment_bytes path);
    Log.info (fun m ->
        m "journal %s: checkpointed to %d record(s)" path (List.length records))

let close t =
  (match t.journal with
  | Some w ->
    Journal.close_writer w;
    t.journal <- None
  | None -> ());
  D.Par.Pool.shutdown t.pool

let create ?weights ?exact_threshold ?algorithms ?(plan = true) ?domains
    ?budget_ms ?journal ?(recover = false) ?(shard_cache = 512) ?snapshot
    ?(snapshot_every = 16) ?(fsync = false) ?segment_bytes db queries =
  (* every argument check precedes the first file operation: a rejected
     [create] leaves an existing journal and snapshot as they were *)
  if not plan then
    invalid_arg "Engine.create: ~plan:false is gone; every session round \
                 is solved by the planner";
  (match (snapshot, journal) with
  | Some _, None ->
    invalid_arg "Engine.create: ~snapshot requires ~journal (a snapshot is \
                 a position in a journal)"
  | Some _, Some _ when shard_cache <= 0 ->
    invalid_arg "Engine.create: ~snapshot requires a shard cache \
                 (~shard_cache > 0): a snapshot is an image of that cache"
  | _ -> ());
  (match segment_bytes with
  | Some n when n <= 0 ->
    invalid_arg "Engine.create: ~segment_bytes must be positive"
  | _ -> ());
  (match algorithms with
  | Some [] -> invalid_arg "Engine.create: ~algorithms names no algorithm"
  | Some names -> D.Solvers.check_names ~caller:"Engine.create" names
  | None -> ());
  let problem = D.Problem.make ~db ~queries ~deletions:[] ?weights () in
  let arena = D.Arena.of_problem problem in
  let cindex = D.Component_index.build arena in
  let t =
    {
      weights;
      exact_threshold;
      algorithms;
      budget_ms;
      journal_path = journal;
      snapshot_path = snapshot;
      snapshot_every;
      fsync;
      segment_bytes;
      journal = None;
      journal_len = 0;
      last_snapshot_len = 0;
      pool = D.Par.Pool.create ?domains ();
      index = { arena; cindex };
      stats =
        { zero_stats with components = D.Component_index.components cindex };
      shard_cache =
        (if shard_cache > 0 then
           Some (D.Planner.create_cache ~capacity:shard_cache ())
         else None);
      digest = None;
      baseline = (R.Stuple.Set.empty, R.Stuple.Set.empty);
      frames = Snapshot.frames ();
    }
  in
  let open_journal path =
    (* a crash inside [Durable.replace] leaves its temp file; the rename
       is the commit point, so a temp file never holds committed data *)
    Durable.remove_temp path;
    Option.iter Durable.remove_temp snapshot;
    if not recover then begin
      Journal.remove path;
      Option.iter Snapshot.remove snapshot
    end;
    (* The snapshot candidate, loaded before replay (cheap; plain data).
       Any load failure is a typed warning and a cold cache — never a
       failed recovery. The load seeds the frame memo, so the reclaim
       checkpoint below re-encodes only the entries the tail replaced. *)
    let snap =
      match snapshot with
      | Some spath when recover -> (
        match Snapshot.load ~frames:t.frames spath with
        | Ok (s, dropped) -> Some (s, dropped)
        | Error w ->
          t.stats <- { t.stats with snapshot = Degraded w };
          Log.warn (fun m ->
              m "snapshot %s: %a — starting cold" spath Snapshot.pp_warning w);
          None)
      | _ -> None
    in
    (* the fresh base state, reinstallable if a fast-path attempt below
       turns out stale: nothing mutates [arena] / [cindex] —
       commits and installs build new values (arena patches copy the
       dead bitsets, the component index is persistent), and the fresh
       index has every component dirty *)
    let reset_state () =
      t.index <- { arena; cindex };
      t.digest <- None;
      t.baseline <- (R.Stuple.Set.empty, R.Stuple.Set.empty);
      (match t.shard_cache with
      | Some c -> D.Planner.cache_clear c
      | None -> ());
      t.stats <-
        {
          zero_stats with
          snapshot = t.stats.snapshot;
          components = D.Component_index.components cindex;
        }
    in
    (* Fast path: with the journal still on the snapshot's generation,
       the journal's first [position] records are provably the ones the
       snapshot summarizes (within a generation the sequence is
       append-only; only [rewrite] bumps it). Apply the baseline as one
       delta in their stead; when the coordinates — component count and
       content digest, both tombstone/compaction invariant — then match,
       install the entries, counters and dirty bits and fold only the
       tail, which carries the restored dirty bits like one live delta.
       The sealed segments the skipped prefix lives in are reclaimed by
       a checkpoint once the writer reopens — never by unlinking them in
       place, which would shift every surviving record's global index
       out from under the snapshot's recorded position and poison the
       *next* recovery. Anything else rebuilds the base state and
       replays the whole journal cold below. *)
    let reclaim = ref false in
    let fast =
      match (snap, t.shard_cache) with
      | Some (s, dropped), Some c
        when Journal.current_gen path = s.Snapshot.generation -> (
        match
          Journal.load_from ~repair:true ~position:s.Snapshot.position path
        with
        | Ok { Journal.tail; total; covered } when total >= s.Snapshot.position ->
          let gone, added = s.Snapshot.baseline in
          ignore (apply_delta_raw t (D.Delta.make ~deletes:gone ~inserts:added ()));
          let ix = t.index in
          if
            s.Snapshot.components = D.Component_index.components ix.cindex
            && D.Fingerprint.equal s.Snapshot.arena_fp (digest t)
          then begin
            D.Planner.cache_restore ~stats:s.Snapshot.stats c s.Snapshot.entries;
            t.index <-
              {
                ix with
                cindex = D.Component_index.set_dirty_labels ix.cindex s.Snapshot.dirty;
              };
            let folded = replay t tail in
            t.journal_len <- total;
            (* the next image lands [snapshot_every] records past this
               one, not past the journal tip *)
            t.last_snapshot_len <- s.Snapshot.position;
            t.stats <-
              {
                t.stats with
                recovered_records = total;
                snapshot = Warm { entries = List.length s.Snapshot.entries; dropped };
              };
            reclaim := covered <> [];
            Log.info (fun m ->
                m "journal %s: fast recovery — baseline + %d tail record(s) \
                   folded to %a, %d sealed segment(s) to reclaim"
                  path (List.length tail) pp_folded folded (List.length covered));
            true
          end
          else begin
            reset_state ();
            false
          end
        | _ -> false)
      | _ -> false
    in
    if not fast then (
      match Journal.load ~repair:true path with
      | Error e -> raise (Journal.Error e)
      | Ok records ->
        let n = List.length records in
        let folded = replay t records in
        t.journal_len <- n;
        t.stats <- { t.stats with recovered_records = n };
        (match snap with
        | Some _ ->
          t.stats <- { t.stats with snapshot = Degraded Snapshot.Stale };
          Log.warn (fun m ->
              m "snapshot %s: %a — starting cold" (Option.get snapshot)
                Snapshot.pp_warning Snapshot.Stale)
        | None -> ());
        if records <> [] then
          Log.info (fun m ->
              m "journal %s: replayed %d record(s) folded to %a" path n pp_folded
                folded));
    t.journal <-
      Some (Journal.open_writer ~fsync ?segment_bytes path);
    (* fold the snapshot-covered prefix away for real: the checkpoint's
       generation-bumping rewrite unlinks the sealed segments atomically
       and leaves a journal+snapshot pair that is self-consistent for
       the next recovery *)
    if !reclaim then checkpoint t
  in
  (* a [create] that raises in the journal phase (a corrupt journal, a
     failed write) closes what it opened — the writer and the domain
     pool — so a caller that retries recovery piles up no domains *)
  match Option.iter open_journal journal with
  | () -> t
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    close t;
    Printexc.raise_with_backtrace e bt

let view t name =
  let a = t.index.arena in
  if List.exists (fun (q : Cq.Query.t) -> String.equal q.Cq.Query.name name) a.D.Arena.problem.D.Problem.queries
  then D.Arena.view a name
  else invalid_arg ("Engine.view: unknown query " ^ name)

(* the derived fields are snapshots of live state, stamped at read
   time: the planner cache owns the hit and reuse counters, the arena
   the ratio *)
let stats t =
  let s = { t.stats with tombstone_ratio = D.Arena.tombstone_ratio t.index.arena } in
  match t.shard_cache with
  | None -> s
  | Some c ->
    let cs = D.Planner.cache_stats c in
    {
      s with
      shard_cache_hits = cs.D.Planner.s_hits;
      fragment_reuses = cs.D.Planner.s_fragment_reuses;
      fragment_reuses_exact = cs.D.Planner.s_fragment_reuses_exact;
      fragment_reuses_forest = cs.D.Planner.s_fragment_reuses_forest;
      fragment_reuses_approx = cs.D.Planner.s_fragment_reuses_approx;
    }

let compact t = compact_index t

(* built on demand from the live rows, for tests and tools: no round
   asks for it *)
let index t = (D.Arena.provenance t.index.arena, t.index.arena)
let partition t = D.Component_index.partition t.index.cindex
let component_index t = t.index.cindex

(* the live index always has ΔV = ∅: a request stamps the round's ΔV
   on fresh bitsets over the live arena ([Arena.with_requests]),
   leaving the live index alone, and counts in [index_retargets] *)
let request ?budget_ms t requests =
  let ix = t.index in
  t.stats <- { t.stats with index_retargets = t.stats.index_retargets + 1 };
  let t0 = Unix.gettimeofday () in
  match D.Arena.with_requests ix.arena requests with
  | Error _ as e -> e
  | Ok arena' ->
    let budget_ms = match budget_ms with Some _ as b -> b | None -> t.budget_ms in
    (* the component index depends only on witness structure, so the
       session's incrementally maintained one re-targets for free: active
       components enumerate off the live rosters. The planner hands it
       back with the round's memos recorded and its shards cleaned *)
    let report =
      D.Planner.solve ?exact_threshold:t.exact_threshold ?only:t.algorithms
        ?budget_ms ~pool:t.pool ~index:ix.cindex ?cache:t.shard_cache arena'
    in
    t.index <- { ix with cindex = report.D.Planner.index };
    let ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
    let exact_shards =
      List.length
        (List.filter
           (fun (d : D.Planner.shard_decision) -> d.D.Planner.exact)
           report.D.Planner.shards)
    in
    let n_shards = List.length report.D.Planner.shards in
    let n_cached = report.D.Planner.shards_cached in
    t.stats <-
      {
        t.stats with
        rounds = t.stats.rounds + 1;
        last_solve_ms = ms;
        total_solve_ms = t.stats.total_solve_ms +. ms;
        shards_solved = t.stats.shards_solved + n_shards;
        shards_exact = t.stats.shards_exact + exact_shards;
        shards_approx = t.stats.shards_approx + (n_shards - exact_shards);
        shards_cached = t.stats.shards_cached + n_cached;
        shards_resolved = t.stats.shards_resolved + (n_shards - n_cached);
      };
    Log.debug (fun m ->
        m "round %d: %d solution(s), %d failure(s), %d shard(s) in %.2f ms"
          t.stats.rounds
          (List.length report.D.Planner.solutions)
          (List.length report.D.Planner.failures)
          n_shards ms);
    Ok
      {
        requests;
        solutions = report.D.Planner.solutions;
        failures = report.D.Planner.failures;
        degraded = report.D.Planner.degraded;
        decomposed = report.D.Planner.decomposed;
        shards = report.D.Planner.shards;
        shards_cached = report.D.Planner.shards_cached;
      }

let apply ?solution t plan =
  let chosen =
    match solution with
    | Some _ as s -> s
    | None -> ( match plan.solutions with s :: _ -> Some s | [] -> None)
  in
  match chosen with
  | None -> None
  | Some s ->
    (* a commit that changed nothing is not journaled: it would only
       advance the snapshot policy *)
    let dd = commit_raw t s.D.Solution.deleted in
    if not (R.Stuple.Set.is_empty dd) then journal_append t (Journal.Apply dd);
    Some s

let delete t dd =
  let dd = commit_raw t dd in
  if not (R.Stuple.Set.is_empty dd) then journal_append t (Journal.Delete dd)

let insert t st =
  let applied = apply_delta_raw t (D.Delta.of_inserts (R.Stuple.Set.singleton st)) in
  if not (D.Delta.is_empty applied) then journal_append t (Journal.Insert st)

let apply_delta t delta =
  let applied = apply_delta_raw t delta in
  if not (D.Delta.is_empty applied) then
    journal_append t
      (Journal.Delta
         { deletes = applied.D.Delta.deletes; inserts = applied.D.Delta.inserts });
  applied

(* ---- scripted sessions ---- *)

module Script = struct
  type op =
    | Solve of D.Delta_request.t list
    | Propose of D.Delta_request.t list
    | Insert of R.Stuple.t
    | Delete of R.Stuple.t

  type line = {
    lineno : int;
    text : string;
    op : op;
  }

  type round = {
    number : int;
    op : op;
    plan : plan option;
    error : string option;
  }

  let parse_fact s =
    let rel, tuple = R.Serial.fact_of_string s in
    R.Stuple.make rel tuple

  (* group facts by view, preserving first-appearance order on both the
     views and their tuples *)
  let group_requests facts =
    List.fold_left
      (fun acc (view, tuple) ->
        if List.mem_assoc view acc then
          List.map
            (fun (v, ts) -> if String.equal v view then (v, ts @ [ tuple ]) else (v, ts))
            acc
        else acc @ [ (view, [ tuple ]) ])
      [] facts
    |> List.map (fun (view, tuples) -> D.Delta_request.make ~view tuples)

  let parse_line line =
    let keyword, rest =
      match String.index_opt line ' ' with
      | None -> (line, "")
      | Some i ->
        ( String.sub line 0 i,
          String.trim (String.sub line i (String.length line - i)) )
    in
    try
      match keyword with
      | "solve" | "propose" ->
        let facts =
          String.split_on_char ';' rest
          |> List.map String.trim
          |> List.filter (fun s -> s <> "")
          |> List.map R.Serial.fact_of_string
        in
        if facts = [] then
          Error (Printf.sprintf "%s: expected at least one view fact" keyword)
        else
          let requests = group_requests facts in
          Ok (if keyword = "solve" then Solve requests else Propose requests)
      | "insert" -> Ok (Insert (parse_fact rest))
      | "delete" -> Ok (Delete (parse_fact rest))
      | kw ->
        Error
          (Printf.sprintf "unknown op %S (expected solve|propose|insert|delete)"
             kw)
    with R.Serial.Parse_error (_, msg) -> Error msg

  let parse text =
    let rec go n acc = function
      | [] -> Ok (List.rev acc)
      | raw :: tl -> (
        let trimmed = String.trim raw in
        if trimmed = "" || trimmed.[0] = '#' then go (n + 1) acc tl
        else
          match parse_line trimmed with
          | Ok op -> go (n + 1) ({ lineno = n; text = trimmed; op } :: acc) tl
          | Error msg -> Error (Printf.sprintf "line %d: %s" n msg))
    in
    go 1 [] (String.split_on_char '\n' text)

  let parse_file path = parse (Durable.read_file path)

  (* one op; [Ok] carries the plan of a solve round *)
  let execute eng = function
    | Solve requests -> (
      match request eng requests with
      | Error e -> Error (D.Delta_request.error_to_string e)
      | Ok plan ->
        ignore (apply eng plan);
        Ok (Some plan))
    | Propose requests -> (
      (* solve-without-apply: the round's plan is reported but nothing
         commits — repeated proposals over stable components are what
         the shard cache accelerates *)
      match request eng requests with
      | Error e -> Error (D.Delta_request.error_to_string e)
      | Ok plan -> Ok (Some plan))
    | Insert st -> (
      match insert eng st with
      | () -> Ok None
      | exception R.Relation.Key_violation (rel, existing, _) ->
        Error
          (Format.asprintf "inserting %a violates the key of %s (%a)" R.Stuple.pp st
             rel R.Tuple.pp existing))
    | Delete st ->
      delete eng (R.Stuple.Set.singleton st);
      Ok None

  let replay ?(keep_going = false) eng lines =
    let rec go n acc = function
      | [] -> Ok (List.rev acc)
      | (line : line) :: tl -> (
        match execute eng line.op with
        | Ok plan -> go (n + 1) ({ number = n; op = line.op; plan; error = None } :: acc) tl
        | Error msg ->
          (* the failing line's own text travels with the error — a
             script author debugs the script, not the round numbering *)
          let msg = Printf.sprintf "round %d (%s): %s" n line.text msg in
          if keep_going then
            go (n + 1) ({ number = n; op = line.op; plan = None; error = Some msg } :: acc) tl
          else Error msg)
    in
    go 1 [] lines
end

(* re-exports: [engine] is the library's interface module, so the
   journal and snapshot machinery are reachable from outside as
   [Engine.Durable] / [Engine.Journal] / [Engine.Snapshot] *)
module Durable = Durable
module Journal = Journal
module Snapshot = Snapshot
