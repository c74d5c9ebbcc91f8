(* Crash cuts: every process-crash state of a few fixed scripted
   sessions recovers to its last committed database.

   Each session runs once with [Durable.record] on, which hands back
   every write it made, in order. A cut is a prefix of those writes: all
   of them up to one, or up to one and then part of an append or a
   replace — at byte 0, byte 1, the middle and the last byte, or at
   every byte with DELEPROP_CRASHCUT_STRIDE=1 (every n-th with n). For
   each cut the suite rebuilds the session's files from the prefix with
   its own Stdlib writer, not through [Durable], recovers, and checks:

   - recovery returns, never raises;
   - the database is the one after the last commit whose record append
     finished before the cut;
   - the first request's answer equals a scratch [Planner.solve] on that
     database: cost bits, deleted set, certificate;
   - recovery is warm exactly when the last complete image loads, its
     generation is the journal's current one, and the journal holds at
     least its position in records (DESIGN.md §14).

   It also checks the fsync policy on the recorded writes: under
   [~fsync:true] a directory fsync follows every rename and every file
   creation, and under [~fsync:false] nothing is fsynced.

   This is the process-crash model of ALICE (Pillai et al., OSDI 2014),
   enumerated in the style of CrashMonkey's B3 (Mohan et al., OSDI
   2018). Power-loss reordering needs a file-system model and is not
   tested here. *)

open Util
module R = Relational
module D = Deleprop
module Du = Engine.Durable
module M = Map.Make (String)

(* set in CI's every-byte step *)
let stride =
  match Sys.getenv_opt "DELEPROP_CRASHCUT_STRIDE" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with Some n when n >= 1 -> Some n | _ -> None)
  | None -> None

(* ---- the scripted sessions, on the three-component instance ---- *)

type step =
  | Commit of (string * string) list * (string * string) list
      (** T1(author, journal) tuples deleted, then inserted *)
  | Propose
  | Checkpoint
  | Recover  (** close and recover *)
  | Torn of int * (string * string)
      (** an insert whose record append dies after that many bytes, then
          close and recover *)

type config = {
  name : string;
  snapshot_every : int option;  (** [None]: no snapshot *)
  segment_bytes : int option;
  fsync : bool;
  exact_threshold : int option;
  steps : step list;
}

let configs =
  [
    {
      name = "journal only";
      snapshot_every = None;
      segment_bytes = None;
      fsync = false;
      exact_threshold = None;
      steps =
        [
          Propose; Commit ([], [ ("D", "J2") ]); Commit ([ ("A", "J1") ], []);
          Propose; Checkpoint; Commit ([], [ ("E", "J3") ]); Torn (3, ("F", "J1"));
          Commit ([], [ ("F", "J1") ]); Recover; Commit ([ ("D", "J2") ], [ ("G", "J2") ]);
          Propose;
        ];
    };
    {
      name = "image every record, 32-byte segments, fsync";
      snapshot_every = Some 1;
      segment_bytes = Some 32;
      fsync = true;
      exact_threshold = None;
      steps =
        [
          Propose; Commit ([], [ ("D", "J2") ]); Commit ([], [ ("E", "J3") ]); Propose;
          Commit ([ ("B", "J2") ], []); Commit ([], [ ("F", "J1") ]); Recover;
          Commit ([ ("E", "J3") ], []); Torn (5, ("G", "J2")); Propose;
          Commit ([], [ ("G", "J2") ]); Checkpoint; Commit ([ ("D", "J2") ], []);
        ];
    };
    {
      name = "image every 2 records, 48-byte segments, forest tier";
      snapshot_every = Some 2;
      segment_bytes = Some 48;
      fsync = false;
      exact_threshold = Some 0;
      steps =
        [
          Propose; Commit ([], [ ("D", "J2") ]); Commit ([], [ ("E", "J3") ]);
          Commit ([ ("A", "J1") ], [ ("F", "J1") ]); Propose; Checkpoint;
          Commit ([], [ ("G", "J2") ]); Commit ([ ("D", "J2") ], []); Recover;
          Torn (1, ("H", "J3")); Commit ([], [ ("H", "J3") ]); Propose;
          Commit ([ ("F", "J1") ], []);
        ];
    };
    {
      name = "image every 3 records, one file, fsync";
      snapshot_every = Some 3;
      segment_bytes = None;
      fsync = true;
      exact_threshold = None;
      steps =
        [
          Propose; Commit ([], [ ("D", "J2") ]); Commit ([], [ ("E", "J3") ]);
          Commit ([ ("C", "J3") ], []); Propose; Commit ([], [ ("F", "J1") ]);
          Torn (4, ("G", "J2")); Commit ([], [ ("G", "J2") ]); Checkpoint;
          Commit ([ ("B", "J2") ], []); Recover; Commit ([], [ ("C", "J3") ]); Propose;
        ];
    };
  ]

let journal dir = Filename.concat dir "J"
let snapshot dir = Filename.concat dir "S"
let base_db = Test_shardcache.tri_db
let queries = Test_shardcache.tri_queries

let create c dir ~recover =
  Engine.create ~domains:1 ?exact_threshold:c.exact_threshold ~journal:(journal dir)
    ?snapshot:(Option.map (fun _ -> snapshot dir) c.snapshot_every)
    ?snapshot_every:c.snapshot_every ?segment_bytes:c.segment_bytes ~fsync:c.fsync
    ~recover (base_db ()) (queries ())

let t1 (a, j) = st "T1" [ a; j ]

(* the request a database gets: every other tuple of its view, in
   order *)
let requested db =
  let p = D.Problem.make ~db ~queries:(queries ()) ~deletions:[] () in
  D.Smap.find "Q4" (D.Provenance.build p).D.Provenance.views
  |> R.Tuple.Set.elements
  |> List.filteri (fun i _ -> i mod 2 = 0)

let request_of db = [ D.Delta_request.make ~view:"Q4" (requested db) ]

(* the answer to [request_of db] from scratch: no session, no cache *)
let scratch c db =
  let p = D.Problem.make ~db ~queries:(queries ()) ~deletions:[ ("Q4", requested db) ] () in
  (D.Planner.solve ?exact_threshold:c.exact_threshold (D.Arena.build (D.Provenance.build p)))
    .D.Planner.solutions

let same_answer (a : D.Solution.t list) (b : D.Solution.t list) =
  List.length a = List.length b
  && List.for_all2
       (fun (x : D.Solution.t) (y : D.Solution.t) ->
         Int64.equal
           (Int64.bits_of_float x.D.Solution.outcome.D.Side_effect.cost)
           (Int64.bits_of_float y.D.Solution.outcome.D.Side_effect.cost)
         && R.Stuple.Set.equal x.D.Solution.deleted y.D.Solution.deleted
         && x.D.Solution.certificate = y.D.Solution.certificate)
       a b

(* ---- recording ---- *)

type recording = {
  ops : Du.op array;
  commits : (int * R.Instance.t) list;
      (** the index of each commit's record append, and the database
          after the commit, in order *)
}

let record c dir =
  let ops = ref [] and n = ref 0 and commits = ref [] in
  let last_db () = match !commits with (_, db) :: _ -> db | [] -> base_db () in
  Du.record
    (Some
       (fun op ->
         ops := op :: !ops;
         incr n));
  Fun.protect
    ~finally:(fun () ->
      Du.record None;
      D.Failpoint.clear "journal.append")
    (fun () ->
      let eng = ref (create c dir ~recover:false) in
      let commit deletes inserts =
        let at = !n in
        let delta =
          D.Delta.make
            ~deletes:(R.Stuple.Set.of_list (List.map t1 deletes))
            ~inserts:(R.Stuple.Set.of_list (List.map t1 inserts))
            ()
        in
        if D.Delta.is_empty (Engine.apply_delta !eng delta) then
          Alcotest.fail (c.name ^ ": a scripted commit changed nothing");
        (match List.nth (List.rev !ops) at with
        | Du.Append (p, _) when p = journal dir -> ()
        | _ -> Alcotest.fail (c.name ^ ": a commit's first write is not its record"));
        commits := (at, Engine.db !eng) :: !commits
      in
      let recover () =
        Engine.close !eng;
        eng := create c dir ~recover:true;
        Alcotest.(check bool) (c.name ^ ": recovered the committed database") true
          (R.Instance.equal (Engine.db !eng) (last_db ()));
        if c.snapshot_every <> None && !commits <> [] then
          match (Engine.stats !eng).Engine.snapshot with
          | Engine.Warm _ -> ()
          | s ->
            Alcotest.fail
              (Format.asprintf "%s: recovered %a" c.name Engine.pp_snapshot_status s)
      in
      List.iter
        (function
          | Commit (deletes, inserts) -> commit deletes inserts
          | Propose -> ignore (Engine.request !eng (request_of (Engine.db !eng)))
          | Checkpoint -> Engine.checkpoint !eng
          | Recover -> recover ()
          | Torn (k, tuple) ->
            D.Failpoint.set "journal.append" (D.Failpoint.Crash_after_bytes k);
            (match commit [] [ tuple ] with
            | exception D.Failpoint.Injected _ -> ()
            | () -> Alcotest.fail (c.name ^ ": the torn append returned"));
            D.Failpoint.clear "journal.append";
            recover ())
        c.steps;
      Engine.close !eng);
  { ops = Array.of_list (List.rev !ops); commits = List.rev !commits }

(* ---- the files a cut leaves, rebuilt with the Stdlib ---- *)

let apply files = function
  | Du.Create p -> M.add p "" files
  | Du.Append (p, b) -> M.add p (Option.value (M.find_opt p files) ~default:"" ^ b) files
  | Du.Replace (p, b) -> M.add p b (M.remove (p ^ ".tmp") files)
  | Du.Rename (src, dst) -> M.add dst (M.find src files) (M.remove src files)
  | Du.Truncate (p, n) -> M.add p (String.sub (M.find p files) 0 n) files
  | Du.Remove p -> M.remove p files
  | Du.Sync_dir _ -> files

(* the first [k] bytes of a write: a torn append, or a replace that died
   writing its temp file *)
let apply_torn files op k =
  match op with
  | Du.Append (p, b) -> apply files (Du.Append (p, String.sub b 0 k))
  | Du.Replace (p, b) -> M.add (p ^ ".tmp") (String.sub b 0 k) files
  | _ -> files

let empty_dir dir =
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir)

let materialize dir files =
  empty_dir dir;
  M.iter
    (fun p data ->
      let oc = open_out_bin p in
      output_string oc data;
      close_out oc)
    files

(* ---- cuts ---- *)

type cut = {
  complete : int;  (** writes applied whole *)
  torn : int option;  (** bytes of the next write applied *)
}

let offsets len =
  let named = List.filter (fun k -> k >= 0 && k < len) [ 0; 1; len / 2; len - 1 ] in
  match stride with
  | None -> List.sort_uniq compare named
  | Some s -> List.filter (fun k -> k mod s = 0 || List.mem k named) (List.init len Fun.id)

let cuts ops =
  List.concat
    (List.mapi
       (fun i op ->
         let inside =
           match op with
           | Du.Append (_, b) | Du.Replace (_, b) ->
             List.map (fun k -> { complete = i; torn = Some k }) (offsets (String.length b))
           | _ -> []
         in
         (* a directory fsync changes no file *)
         let after =
           match op with Du.Sync_dir _ -> [] | _ -> [ { complete = i + 1; torn = None } ]
         in
         inside @ after)
       (Array.to_list ops))

let describe = function
  | Du.Create p -> "create " ^ Filename.basename p
  | Du.Append (p, b) -> Printf.sprintf "append %d B to %s" (String.length b) (Filename.basename p)
  | Du.Replace (p, b) -> Printf.sprintf "replace %s (%d B)" (Filename.basename p) (String.length b)
  | Du.Rename (a, b) -> Printf.sprintf "rename %s to %s" (Filename.basename a) (Filename.basename b)
  | Du.Truncate (p, n) -> Printf.sprintf "truncate %s to %d B" (Filename.basename p) n
  | Du.Remove p -> "remove " ^ Filename.basename p
  | Du.Sync_dir _ -> "fsync the directory"

let pp_cut ops cut =
  match cut.torn with
  | None -> Printf.sprintf "after write %d (%s)" (cut.complete - 1) (describe ops.(cut.complete - 1))
  | Some k -> Printf.sprintf "inside write %d (%s) at byte %d" cut.complete (describe ops.(cut.complete)) k

(* DESIGN.md §14: an image installs iff it loads, names the journal's
   current generation and lies within the journal *)
let predicted_warm c dir =
  c.snapshot_every <> None
  &&
  match Engine.Snapshot.load (snapshot dir) with
  | Error _ -> false
  | Ok (s, _) -> (
    s.Engine.Snapshot.generation = Engine.Journal.current_gen (journal dir)
    &&
    match Engine.Journal.load (journal dir) with
    | Ok records -> List.length records >= s.Engine.Snapshot.position
    | Error _ -> false)

(* what is wrong with the recovery from one cut's files, if anything *)
let check_cut c dir ~expected ~answer =
  let predicted = predicted_warm c dir in
  match create c dir ~recover:true with
  | exception e -> [ "recovery raised " ^ Printexc.to_string e ]
  | eng ->
    Fun.protect
      ~finally:(fun () -> Engine.close eng)
      (fun () ->
        let db_ok = R.Instance.equal (Engine.db eng) expected in
        let warm =
          match (Engine.stats eng).Engine.snapshot with Engine.Warm _ -> true | _ -> false
        in
        List.filter_map Fun.id
          [
            (if db_ok then None else Some "not the last committed database");
            (* a cut inside a replace leaves its temp file; recovery removes it *)
            (if Array.exists (fun f -> Filename.check_suffix f ".tmp") (Sys.readdir dir)
             then Some "a .tmp file survived the recovery"
             else None);
            (if warm = predicted then None
             else
               Some
                 (Format.asprintf "recovered %a, predicted %s" Engine.pp_snapshot_status
                    (Engine.stats eng).Engine.snapshot
                    (if predicted then "warm" else "cold")));
            (if not db_ok then None
             else
               match Engine.request eng (request_of expected) with
               | Error e -> Some ("request: " ^ D.Delta_request.error_to_string e)
               | Ok plan ->
                 if same_answer plan.Engine.solutions (Lazy.force answer) then None
                 else Some "the first answer differs from a scratch solve");
          ])

(* under the policy a directory fsync directly follows every file
   creation and every rename; without it there is none. The rows file
   is a cache, written under ~fsync:false whatever the policy: no
   directory fsync follows its replace under either *)
let check_fsync c ops =
  let n = Array.length ops in
  let synced i = i + 1 < n && match ops.(i + 1) with Du.Sync_dir _ -> true | _ -> false in
  Array.iteri
    (fun i op ->
      let path =
        match op with
        | Du.Create p | Du.Replace (p, _) | Du.Rename (_, p) -> Some p
        | _ -> None
      in
      match (op, path) with
      | Du.Sync_dir _, _ when not c.fsync ->
        Alcotest.fail (c.name ^ ": a directory fsync under ~fsync:false")
      | _, Some p when Filename.check_suffix p ".rows" ->
        if synced i then
          Alcotest.fail (Printf.sprintf "%s: write %d (%s) is fsynced" c.name i (describe op))
      | _, Some p when c.fsync ->
        if not (i + 1 < n && ops.(i + 1) = Du.Sync_dir (Filename.dirname p)) then
          Alcotest.fail
            (Printf.sprintf "%s: write %d (%s) is not followed by a directory fsync" c.name i
               (describe op))
      | _ -> ())
    ops

let rm_rf dir =
  empty_dir dir;
  Sys.rmdir dir

let test_config c () =
  let dir = Filename.temp_dir "deleprop_crashcut" "" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let { ops; commits } = record c dir in
      check_fsync c ops;
      let has f = Array.exists f ops in
      if c.segment_bytes <> None then
        Alcotest.(check bool) (c.name ^ ": the journal rotated") true
          (has (function Du.Rename _ -> true | _ -> false));
      Alcotest.(check bool) (c.name ^ ": a repair truncated a torn append") true
        (has (function Du.Truncate _ -> true | _ -> false));
      (* the files after [k] whole writes, and the database the last
         commit among them left *)
      let files = Array.make (Array.length ops + 1) M.empty in
      Array.iteri (fun i op -> files.(i + 1) <- apply files.(i) op) ops;
      let answers = Hashtbl.create 16 in
      let committed k =
        let at, db =
          List.fold_left
            (fun acc (at, db) -> if at < k then (at, db) else acc)
            (-1, base_db ()) commits
        in
        ( db,
          match Hashtbl.find_opt answers at with
          | Some a -> a
          | None ->
            let a = lazy (scratch c db) in
            Hashtbl.replace answers at a;
            a )
      in
      let all = cuts ops in
      let failures =
        List.concat_map
          (fun cut ->
            materialize dir
              (match cut.torn with
              | None -> files.(cut.complete)
              | Some k -> apply_torn files.(cut.complete) ops.(cut.complete) k);
            let expected, answer = committed cut.complete in
            List.map
              (fun problem -> pp_cut ops cut ^ ": " ^ problem)
              (check_cut c dir ~expected ~answer))
          all
      in
      Printf.printf "%s: %d writes, %d cuts\n" c.name (Array.length ops) (List.length all);
      if failures <> [] then
        Alcotest.fail
          (Printf.sprintf "%s: %d failing cut(s):\n%s" c.name (List.length failures)
             (String.concat "\n" failures)))

let suite =
  List.map
    (fun c -> Alcotest.test_case ("crash cuts: " ^ c.name) `Quick (test_config c))
    configs
