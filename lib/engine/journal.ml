module R = Relational

let magic = "DLPJRNL1"

type record =
  | Apply of R.Stuple.Set.t
  | Delete of R.Stuple.Set.t
  | Insert of R.Stuple.t
  | Delta of { deletes : R.Stuple.Set.t; inserts : R.Stuple.Set.t }

type error =
  | Bad_magic of string
  | Corrupt of { index : int; reason : string }

exception Error of error

let pp_error ppf = function
  | Bad_magic path -> Format.fprintf ppf "%s is not a session journal" path
  | Corrupt { index; reason } -> Format.fprintf ppf "journal record %d corrupt: %s" index reason

(* ---- record codec ---- *)

let tag_of = function
  | Apply _ -> 'A'
  | Delete _ -> 'D'
  | Insert _ -> 'I'
  | Delta _ -> 'U'

let payload_of record =
  let facts =
    match record with
    | Apply dd | Delete dd -> List.map R.Stuple.to_string (R.Stuple.Set.elements dd)
    | Insert st -> [ R.Stuple.to_string st ]
    | Delta { deletes; inserts } ->
      (* signed facts, deletes first — the order [apply_delta] replays *)
      List.map (fun st -> "-" ^ R.Stuple.to_string st) (R.Stuple.Set.elements deletes)
      @ List.map (fun st -> "+" ^ R.Stuple.to_string st) (R.Stuple.Set.elements inserts)
  in
  String.concat "\n" (String.make 1 (tag_of record) :: facts)

let fact_of_line line =
  let rel, tuple = R.Serial.fact_of_string line in
  R.Stuple.make rel tuple

let signed_fact_of_line line =
  if String.length line = 0 then failwith "empty signed fact"
  else
    let rest = String.sub line 1 (String.length line - 1) in
    match line.[0] with
    | '-' -> (`Delete, fact_of_line rest)
    | '+' -> (`Insert, fact_of_line rest)
    | c -> failwith (Printf.sprintf "signed fact starts with %C, expected '-'/'+'" c)

let record_of_payload payload =
  match String.split_on_char '\n' payload with
  | tag :: facts -> (
    match tag with
    | "A" -> Apply (R.Stuple.Set.of_list (List.map fact_of_line facts))
    | "D" -> Delete (R.Stuple.Set.of_list (List.map fact_of_line facts))
    | "I" -> (
      match facts with
      | [ f ] -> Insert (fact_of_line f)
      | _ -> failwith "insert record needs exactly one fact")
    | "U" ->
      let deletes, inserts =
        List.fold_left
          (fun (dd, ins) line ->
            match signed_fact_of_line line with
            | `Delete, st -> (R.Stuple.Set.add st dd, ins)
            | `Insert, st -> (dd, R.Stuple.Set.add st ins))
          (R.Stuple.Set.empty, R.Stuple.Set.empty)
          facts
      in
      Delta { deletes; inserts }
    | t -> failwith (Printf.sprintf "unknown record tag %S" t))
  | [] -> failwith "empty payload"

let encode record = Durable.frame (payload_of record)

(* ---- segments ----

   The active segment lives at [path]; rotation seals it by renaming to
   [path ^ ".seg-<gen>-<seq>"] (seq ascending = chronological within a
   generation) and starting a fresh active file. Every segment written
   by a rotating or rewriting writer opens with a generation marker — a
   CRC-framed ['G'] record — and {!load} reads exactly the sealed
   segments whose filename generation matches the active file's marker,
   in sequence order, then the active itself. {!rewrite} bumps the
   generation in the replacement image {e before} renaming it over
   [path], so a crash between the rename and the stale-segment cleanup
   leaves old sealed segments that the next load provably ignores: the
   multi-file journal is atomic at the single rename, same as the
   single-file one. Pre-rotation journals carry no marker and parse as
   generation 0 with no sealed segments — fully backward compatible. *)

let gen_marker gen = Durable.frame (Printf.sprintf "G\n%d" gen)
let seal_name path gen seq = Printf.sprintf "%s.seg-%d-%d" path gen seq

(* every [path ^ ".seg-<gen>-<seq>"] in path's directory, sorted by
   (gen, seq) ascending *)
let sealed_segments path =
  let dir = Filename.dirname path in
  let prefix = Filename.basename path ^ ".seg-" in
  let plen = String.length prefix in
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | entries ->
    Array.to_list entries
    |> List.filter_map (fun e ->
           if String.length e > plen && String.sub e 0 plen = prefix then
             match
               String.split_on_char '-' (String.sub e plen (String.length e - plen))
             with
             | [ g; s ] -> (
               match (int_of_string_opt g, int_of_string_opt s) with
               | Some g, Some s -> Some (g, s, Filename.concat dir e)
               | _ -> None)
             | _ -> None
           else None)
    |> List.sort compare

(* best-effort: the first record's generation marker, [None] for legacy
   files (whose first record is data). Integrity is not checked here —
   a corrupt marker surfaces as a typed [Corrupt] during {!load}. A
   marker frame is at most 30 bytes, so the file's first 64 hold it. *)
let gen_of_file path =
  match Durable.read_file ~upto:64 path with
  | exception Sys_error _ -> None
  | head -> (
    let m = String.length magic in
    match Durable.skip_frame head m with
    | Some next
      when String.starts_with ~prefix:magic head
           && next - m >= 10 && head.[m + 8] = 'G' && head.[m + 9] = '\n' ->
      int_of_string_opt (String.sub head (m + 10) (next - m - 10))
    | _ -> None)

(* the generation the journal at [path] is currently on: the active
   file's marker, else (active legacy/absent) the newest sealed
   segment's, else 0 *)
let current_gen path =
  match (if Sys.file_exists path then gen_of_file path else None) with
  | Some g -> g
  | None ->
    List.fold_left (fun m (g, _, _) -> max m g) 0 (sealed_segments path)

(* ---- reading ---- *)

(* One segment's records, or the typed error that stops it.
   [allow_torn] (the active segment only): an incomplete or
   checksum-failing final record is a torn write, dropped (and truncated
   off with [repair]), and so is a header torn inside the magic, which
   leaves no records — repaired to an empty file, the writer re-heads it
   at the current generation. Anywhere else the same shapes are
   corruption. Generation markers are consumed, not emitted. [index0]
   offsets the typed error's record index so it is global across
   segments. *)
let parse_segment ?(repair = false) ~allow_torn ~index0 path =
  let data = Durable.read_file path in
  let len = String.length data in
  let torn pos = if repair && allow_torn then Durable.truncate path pos in
  if len = 0 then Ok []
  else if allow_torn && len < String.length magic && String.starts_with ~prefix:data magic
  then begin
    torn 0;
    Ok []
  end
  else if not (String.starts_with ~prefix:magic data) then Error (Bad_magic path)
  else begin
    let rec go pos index acc =
      let torn_tail () =
        if allow_torn then begin
          torn pos;
          Ok (List.rev acc)
        end
        else Error (Corrupt { index; reason = "torn record in sealed segment" })
      in
      if pos = len then Ok (List.rev acc)
      else
        match Durable.read_frame data pos with
        | Durable.Torn -> torn_tail ()
        (* a checksum failure on the final record is a torn write too *)
        | Durable.Bad_crc next when next = len && allow_torn -> torn_tail ()
        | Durable.Bad_crc _ -> Error (Corrupt { index; reason = "checksum mismatch" })
        | Durable.Frame (payload, next) -> (
          if String.length payload >= 1 && payload.[0] = 'G' then
            (* generation marker: framing only, never replayed *)
            go next index acc
          else
            match record_of_payload payload with
            | record -> go next (index + 1) (record :: acc)
            | exception (Failure msg | R.Serial.Parse_error (_, msg)) ->
              (* a checksummed payload that does not decode is corruption
                 whatever its position — the bytes were written whole *)
              Error (Corrupt { index; reason = msg }))
    in
    go (String.length magic) index0 []
  end

(* structural record count of one segment: frame hops only — no CRC
   checks, no payload decoding — with generation markers excluded.
   [None] when the file is unreadable or not frame-delimitable end to
   end, in which case the caller must parse it properly. *)
let count_segment_records path =
  match Durable.read_file path with
  | exception Sys_error _ -> None
  | data ->
    let len = String.length data in
    let rec go pos n =
      if pos = len then Some n
      else
        match Durable.skip_frame data pos with
        | None -> None
        | Some next ->
          let is_marker = next > pos + 8 && data.[pos + 8] = 'G' in
          go next (if is_marker then n else n + 1)
    in
    if String.starts_with ~prefix:magic data then go (String.length magic) 0 else None

type tail = {
  tail : record list;
  total : int;
  covered : string list;
}

(* [load_from ~position] — the journal's records with global index ≥
   [position], without decoding the prefix a snapshot already covers:
   sealed segments lying entirely inside the first [position] records
   are skipped after a structural skim-count (their paths come back in
   [covered] so the caller can reclaim them once the install sticks).
   Skimming checks framing only — a bit flip inside a covered segment is
   invisible here, which is sound exactly because the caller replaces
   those records with the snapshot's baseline and never replays them.
   Segments the prefix only partially covers (always including the
   active one) parse normally, and structural damage in any of them is
   a typed error. [load] is this at position 0. *)
let load_from ?(repair = false) ~position path =
  let gen = current_gen path in
  let sealed =
    List.filter_map
      (fun (g, _, p) -> if g = gen then Some p else None)
      (sealed_segments path)
  in
  let files =
    List.map (fun p -> (p, false)) sealed
    @ (if Sys.file_exists path then [ (path, true) ] else [])
  in
  let rec go before acc covered = function
    | [] ->
      Ok
        { tail = List.concat (List.rev acc); total = before;
          covered = List.rev covered }
    | (p, final) :: rest -> (
      (* only a covered prefix of positive length is skimmed: at
         position 0 ({!load}) every segment parses, so a zero-record
         segment's framing is checked too *)
      let skim =
        if final || position = 0 then None
        else
          match count_segment_records p with
          | Some n when before + n <= position -> Some n
          | _ -> None
      in
      match skim with
      | Some n -> go (before + n) acc (p :: covered) rest
      | None -> (
        match parse_segment ~repair ~allow_torn:final ~index0:before p with
        | Ok records ->
          let n = List.length records in
          let keep = List.filteri (fun i _ -> before + i >= position) records in
          go (before + n) (keep :: acc) covered rest
        | Error e -> Error e))
  in
  go 0 [] [] files

let load ?repair path =
  Result.map (fun t -> t.tail) (load_from ?repair ~position:0 path)

(* ---- writing ---- *)

type writer = {
  path : string;
  fsync : bool;
  segment_bytes : int option;
  mutable gen : int;
  mutable seq : int;  (* the next rotation seals as (gen, seq) *)
  mutable active : Durable.appender;
}

let open_active ~fsync ~gen path =
  Durable.open_append ~fsync ~header:(magic ^ gen_marker gen) path

let open_writer ?(fsync = false) ?segment_bytes path =
  (match segment_bytes with
  | Some n when n <= 0 ->
    invalid_arg "Journal.open_writer: segment_bytes must be positive"
  | _ -> ());
  let gen = current_gen path in
  let seq =
    1
    + List.fold_left
        (fun m (g, s, _) -> if g = gen then max m s else m)
        0 (sealed_segments path)
  in
  { path; fsync; segment_bytes; gen; seq; active = open_active ~fsync ~gen path }

(* seal the active segment once it holds the bound, bytes from before
   this writer opened it included: rename (atomic), then start a fresh
   active of the same generation. A crash between the two leaves no
   active file — {!load} and {!open_writer} adopt the newest sealed
   generation, so nothing is lost. Rotation runs after a fully flushed
   append, which is why a sealed segment can never carry a torn tail of
   its own. *)
let maybe_rotate w =
  match w.segment_bytes with
  | Some limit when Durable.written w.active >= limit ->
    Durable.close w.active;
    Durable.rename ~fsync:w.fsync w.path (seal_name w.path w.gen w.seq);
    w.seq <- w.seq + 1;
    w.active <- open_active ~fsync:w.fsync ~gen:w.gen w.path
  | _ -> ()

let append w record =
  Durable.append ~site:"journal.append" w.active (encode record);
  maybe_rotate w

let close_writer w = Durable.close w.active
let generation w = w.gen

(* stale sealed segments, best-effort: the generation bump already
   hides them *)
let unlink_sealed sealed =
  List.iter (fun (_, _, p) -> try Durable.remove p with Sys_error _ -> ()) sealed

let rewrite ?(fsync = true) path records =
  let sealed = sealed_segments path in
  let gen = current_gen path + 1 in
  Durable.replace ~site:"journal.rewrite" ~fsync path
    (String.concat "" (magic :: gen_marker gen :: List.map encode records));
  (* cleanup after the commit point: crash-safe, see the gen bump *)
  unlink_sealed sealed

let remove path =
  Durable.remove path;
  unlink_sealed (sealed_segments path)
