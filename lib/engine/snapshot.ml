module R = Relational
module D = Deleprop
module S = Deleprop.Solution

let magic = "DLPSNAP1"

(* v6: one full image at one journal position — a header, a mandatory
   baseline frame, the entry frames — and nothing appended after it. An
   entry carries the shard's ‖V‖ and the forest DP's recorded trees, the
   only parts of an answer's structure a split reads. Older images load
   as [Version_mismatch] and degrade to a cold cache, like any other
   unreadable image: a v5 entry carries witness-group and contribution
   parts this build no longer has, a v4 image the parent-√‖V‖ threshold
   and bucket fields, a v3 image may end in delta groups it no longer
   folds, and a v2 image's coordinate predates [Fingerprint.digest]. *)
let version = 6

type t = {
  position : int;
  generation : int;
  arena_fp : D.Fingerprint.t;
  components : int;
  dirty : int list;
  stats : D.Planner.cache_stats;
  baseline : R.Stuple.Set.t * R.Stuple.Set.t;
  entries : (D.Fingerprint.t * D.Planner.cache_entry) list;
}

type warning =
  | Missing
  | Version_mismatch of int
  | Corrupt of string
  | Stale

let pp_warning ppf = function
  | Missing -> Format.pp_print_string ppf "no snapshot on disk"
  | Version_mismatch v ->
    Format.fprintf ppf "snapshot version %d unsupported (this build reads %d)" v version
  | Corrupt reason -> Format.fprintf ppf "snapshot corrupt: %s" reason
  | Stale ->
    Format.pp_print_string ppf "snapshot does not match the journal replay"

let warning_label = function
  | Missing -> "missing"
  | Version_mismatch _ -> "version_mismatch"
  | Corrupt _ -> "corrupt"
  | Stale -> "stale"

(* ---- payload codecs ----

   Floats travel as the 16 hex digits of [Int64.bits_of_float], so a
   restored entry is bit-identical to the cached one — the re-warm
   equivalence property compares costs and certificates exactly, not up
   to printing precision. *)

let hex_of_float f = Printf.sprintf "%016Lx" (Int64.bits_of_float f)

let float_of_hex s =
  match D.Fingerprint.of_hex s with
  | Some bits -> Int64.float_of_bits bits
  | None -> failwith "bad float bits"

let fp_of_hex s =
  match D.Fingerprint.of_hex s with
  | Some fp -> fp
  | None -> failwith "bad fingerprint"

(* "key value" with an exact key match; "" for a bare "key" line *)
let field key line =
  let klen = String.length key in
  if
    String.length line >= klen
    && String.sub line 0 klen = key
    && (String.length line = klen || line.[klen] = ' ')
  then
    if String.length line = klen then ""
    else String.sub line (klen + 1) (String.length line - klen - 1)
  else failwith (Printf.sprintf "expected %S field" key)

let string_of_cert = function
  | S.Exact -> "exact"
  | S.Dual_bound f -> "dual " ^ hex_of_float f
  | S.Ratio f -> "ratio " ^ hex_of_float f
  | S.Heuristic -> "heuristic"
  | S.Anytime -> "anytime"
  | S.Composite { shards; factor } ->
    Printf.sprintf "composite %d %s" shards
      (match factor with None -> "-" | Some f -> hex_of_float f)

let cert_of_string s =
  match String.split_on_char ' ' s with
  | [ "exact" ] -> S.Exact
  | [ "dual"; b ] -> S.Dual_bound (float_of_hex b)
  | [ "ratio"; b ] -> S.Ratio (float_of_hex b)
  | [ "heuristic" ] -> S.Heuristic
  | [ "anytime" ] -> S.Anytime
  | [ "composite"; n; f ] ->
    S.Composite
      {
        shards = int_of_string n;
        factor = (if f = "-" then None else Some (float_of_hex f));
      }
  | _ -> failwith "bad certificate"

let string_of_class = function
  | D.Planner.Exact_small -> "small"
  | D.Planner.Exact_forest -> "forest"
  | D.Planner.Approximate -> "approx"

let class_of_string = function
  | "small" -> D.Planner.Exact_small
  | "forest" -> D.Planner.Exact_forest
  | "approx" -> D.Planner.Approximate
  | _ -> failwith "bad classification"

let stats_lines (s : D.Planner.cache_stats) =
  [
    "hits " ^ string_of_int s.D.Planner.s_hits;
    "misses " ^ string_of_int s.D.Planner.s_misses;
    "splices " ^ string_of_int s.D.Planner.s_fragment_reuses;
    "splices_exact " ^ string_of_int s.D.Planner.s_fragment_reuses_exact;
    "splices_forest " ^ string_of_int s.D.Planner.s_fragment_reuses_forest;
    "splices_approx " ^ string_of_int s.D.Planner.s_fragment_reuses_approx;
  ]

(* decode the 6-line counter block; returns the stats and the
   remaining lines *)
let decode_stats lines =
  match lines with
  | hits :: misses :: splices :: se :: sf :: sa :: rest ->
    ( {
        D.Planner.s_hits = int_of_string (field "hits" hits);
        s_misses = int_of_string (field "misses" misses);
        s_fragment_reuses = int_of_string (field "splices" splices);
        s_fragment_reuses_exact = int_of_string (field "splices_exact" se);
        s_fragment_reuses_forest = int_of_string (field "splices_forest" sf);
        s_fragment_reuses_approx = int_of_string (field "splices_approx" sa);
      },
      rest )
  | _ -> failwith "truncated counter block"

let header_payload t =
  String.concat "\n"
    ([
       "H";
       "version " ^ string_of_int version;
       "position " ^ string_of_int t.position;
       "generation " ^ string_of_int t.generation;
       "arena " ^ D.Fingerprint.to_hex t.arena_fp;
       "components " ^ string_of_int t.components;
       String.concat " " ("dirty" :: List.map string_of_int t.dirty);
     ]
    @ stats_lines t.stats
    @ [ "entries " ^ string_of_int (List.length t.entries) ])

exception Bad_version of int

let decode_header payload =
  match String.split_on_char '\n' payload with
  | "H" :: v :: pos :: gen :: ar :: comp :: dirty :: rest -> (
    let v = int_of_string (field "version" v) in
    if v <> version then raise (Bad_version v);
    let position = int_of_string (field "position" pos) in
    let generation = int_of_string (field "generation" gen) in
    let arena_fp = fp_of_hex (field "arena" ar) in
    let components = int_of_string (field "components" comp) in
    let dirty =
      field "dirty" dirty |> String.split_on_char ' '
      |> List.filter (fun s -> s <> "")
      |> List.map int_of_string
    in
    let stats, rest = decode_stats rest in
    match rest with
    | [ entries ] ->
      let count = int_of_string (field "entries" entries) in
      ( { position; generation; arena_fp; components; dirty; stats;
          baseline = (R.Stuple.Set.empty, R.Stuple.Set.empty); entries = [] },
        count )
    | _ -> failwith "malformed header")
  | _ -> failwith "malformed header"

let take n lines =
  let rec go n acc = function
    | rest when n = 0 -> (List.rev acc, rest)
    | x :: rest -> go (n - 1) (x :: acc) rest
    | [] -> failwith "truncated section"
  in
  go n [] lines

let fact_of_line line =
  let rel, tuple = R.Serial.fact_of_string line in
  R.Stuple.make rel tuple

(* ---- the forest trees ---- *)

(* Node keys and pivots are [Stuple.to_string] content — they may
   contain spaces, so each travels on its own line, delimited by the
   counts in the structural lines around it. *)
let tree_lines (trees : D.Decomposition.forest_tree list) =
  Printf.sprintf "trees %d" (List.length trees)
  :: List.concat_map
       (fun (tr : D.Decomposition.forest_tree) ->
         Printf.sprintf "tree %d" (List.length tr.D.Decomposition.ft_nodes)
         :: tr.D.Decomposition.ft_pivot
         :: List.concat_map
              (fun (k, (n : D.Decomposition.forest_node)) ->
                Printf.sprintf "node %d %s %s %s %s" n.D.Decomposition.fn_depth
                  (if n.D.Decomposition.fn_cut then "1" else "0")
                  (hex_of_float n.D.Decomposition.fn_value)
                  (hex_of_float n.D.Decomposition.fn_slack)
                  (match n.D.Decomposition.fn_parent with
                  | None -> "-"
                  | Some _ -> "P")
                :: k
                :: Option.to_list n.D.Decomposition.fn_parent)
              tr.D.Decomposition.ft_nodes)
       trees

let decode_trees lines =
  let rec nodes j acc = function
    | rest when j = 0 -> (List.rev acc, rest)
    | nh :: key :: rest -> (
      match String.split_on_char ' ' (field "node" nh) with
      | [ depth; cut; value; slack; par ] ->
        let fn_parent, rest =
          match (par, rest) with
          | "P", pk :: rest -> (Some pk, rest)
          | "-", rest -> (None, rest)
          | _ -> failwith "bad node"
        in
        nodes (j - 1)
          (( key,
             {
               D.Decomposition.fn_parent;
               fn_depth = int_of_string depth;
               fn_cut = cut = "1";
               fn_value = float_of_hex value;
               fn_slack = float_of_hex slack;
             } )
          :: acc)
          rest
      | _ -> failwith "bad node")
    | _ -> failwith "bad node"
  in
  let rec trees k acc = function
    | rest when k = 0 -> (List.rev acc, rest)
    | th :: pivot :: rest ->
      let ft_nodes, rest = nodes (int_of_string (field "tree" th)) [] rest in
      trees (k - 1) ({ D.Decomposition.ft_pivot = pivot; ft_nodes } :: acc) rest
    | _ -> failwith "bad tree"
  in
  match lines with
  | l :: rest -> trees (int_of_string (field "trees" l)) [] rest
  | [] -> failwith "missing tree section"

let entry_payload (fp, (e : D.Planner.cache_entry)) =
  String.concat "\n"
    ([
       "E";
       "fp " ^ D.Fingerprint.to_hex fp;
       "class " ^ string_of_class e.D.Planner.e_classification;
       "winner " ^ e.D.Planner.e_winner;
       "cost " ^ hex_of_float e.D.Planner.e_cost;
       "cert " ^ string_of_cert e.D.Planner.e_certificate;
       "forest " ^ (if e.D.Planner.e_forest then "1" else "0");
       "split " ^ (if e.D.Planner.e_split then "1" else "0");
       "vtuples " ^ string_of_int e.D.Planner.e_vtuples;
       "deleted " ^ string_of_int (R.Stuple.Set.cardinal e.D.Planner.e_deleted);
     ]
    @ List.map R.Stuple.to_string (R.Stuple.Set.elements e.D.Planner.e_deleted)
    @ tree_lines e.D.Planner.e_decomposition)

let decode_entry payload =
  match String.split_on_char '\n' payload with
  | "E" :: fp :: cls :: winner :: cost :: cert :: forest :: split :: vtuples
    :: deleted :: rest ->
    let fp = fp_of_hex (field "fp" fp) in
    let e_classification = class_of_string (field "class" cls) in
    let e_winner = field "winner" winner in
    let e_cost = float_of_hex (field "cost" cost) in
    let e_certificate = cert_of_string (field "cert" cert) in
    let flag name line =
      match field name line with
      | "1" -> true
      | "0" -> false
      | _ -> failwith ("bad " ^ name ^ " flag")
    in
    let e_forest = flag "forest" forest in
    let e_split = flag "split" split in
    let e_vtuples = int_of_string (field "vtuples" vtuples) in
    let m = int_of_string (field "deleted" deleted) in
    let facts, rest = take m rest in
    let e_deleted = R.Stuple.Set.of_list (List.map fact_of_line facts) in
    let e_decomposition, rest = decode_trees rest in
    if rest <> [] then failwith "trailing entry lines";
    ( fp,
      {
        D.Planner.e_classification;
        e_winner;
        e_deleted;
        e_cost;
        e_certificate;
        e_forest;
        e_split;
        e_vtuples;
        e_decomposition;
      } )
  | _ -> failwith "malformed entry"

(* the baseline delta: the session's live database expressed against its
   base as (gone, added) fact sets — what the fast recovery path applies
   instead of replaying the journal prefix the snapshot covers *)
let baseline_payload (gone, added) =
  String.concat "\n"
    ([
       "B";
       "gone " ^ string_of_int (R.Stuple.Set.cardinal gone);
       "added " ^ string_of_int (R.Stuple.Set.cardinal added);
     ]
    @ List.map R.Stuple.to_string (R.Stuple.Set.elements gone)
    @ List.map R.Stuple.to_string (R.Stuple.Set.elements added))

let decode_baseline payload =
  match String.split_on_char '\n' payload with
  | "B" :: gone :: added :: facts ->
    let gfacts, rest = take (int_of_string (field "gone" gone)) facts in
    let afacts, rest = take (int_of_string (field "added" added)) rest in
    if rest <> [] then failwith "fact count mismatch";
    ( R.Stuple.Set.of_list (List.map fact_of_line gfacts),
      R.Stuple.Set.of_list (List.map fact_of_line afacts) )
  | _ -> failwith "malformed baseline"

(* Set algebra on one delta — deletes first, then inserts, the engine's
   own commit order: a deleted tuple goes [gone] unless it was [added],
   an inserted one leaves [gone] or joins [added]. *)
let advance_baseline (gone, added) ~deletes ~inserts =
  let gone1 = R.Stuple.Set.union gone (R.Stuple.Set.diff deletes added) in
  ( R.Stuple.Set.diff gone1 inserts,
    R.Stuple.Set.union
      (R.Stuple.Set.diff added deletes)
      (R.Stuple.Set.diff inserts gone1) )

(* ---- the frame memo ----

   fingerprint → (entry record, whole frame). Entries are immutable, so
   the physically same record encodes to the same frame; a record the
   cache replaced under an unchanged fingerprint is a new allocation
   and re-encodes. *)
type frames = (D.Fingerprint.t, D.Planner.cache_entry * string) Hashtbl.t

let frames () : frames = Hashtbl.create 64

let entry_frame memo (fp, e) =
  match Option.bind memo (fun m -> Hashtbl.find_opt m fp) with
  | Some (e', f) when e' == e -> f
  | _ -> Durable.frame (entry_payload (fp, e))

(* ---- i/o ---- *)

(* with a memo, encode only the entries it does not hold, then leave it
   holding exactly this image's frames *)
let encode ?frames t =
  let fs = List.map (entry_frame frames) t.entries in
  Option.iter
    (fun m ->
      Hashtbl.clear m;
      List.iter2 (fun (fp, e) f -> Hashtbl.replace m fp (e, f)) t.entries fs)
    frames;
  String.concat ""
    (magic
    :: Durable.frame (header_payload t)
    :: Durable.frame (baseline_payload t.baseline)
    :: fs)

let write ?frames ?(fsync = true) path t =
  Durable.replace ~site:"snapshot.write" ~fsync path (encode ?frames t)

let load ?frames path =
  if not (Sys.file_exists path) then Error Missing
  else
    match Durable.read_file path with
    | exception Sys_error msg -> Error (Corrupt msg)
    | data -> (
      if not (String.starts_with ~prefix:magic data) then Error (Corrupt "bad magic")
      else
        match Durable.read_frame data (String.length magic) with
        | Durable.Torn -> Error (Corrupt "truncated header")
        | Durable.Bad_crc _ -> Error (Corrupt "header checksum mismatch")
        | Durable.Frame (hp, pos0) -> (
          match decode_header hp with
          | exception Bad_version v -> Error (Version_mismatch v)
          | exception Failure msg -> Error (Corrupt ("header: " ^ msg))
          | meta, count -> (
            (* the baseline frame sits between the header and the
               entries; without it the image cannot install, so damage
               to it drops the whole snapshot *)
            match Durable.read_frame data pos0 with
            | Durable.Torn -> Error (Corrupt "truncated baseline")
            | Durable.Bad_crc _ -> Error (Corrupt "baseline checksum mismatch")
            | Durable.Frame (payload, pos1) -> (
              match decode_baseline payload with
              | exception (Failure msg | R.Serial.Parse_error (_, msg)) ->
                Error (Corrupt ("baseline: " ^ msg))
              | baseline ->
                (* per-entry degradation: a frame that fails its checksum
                   or doesn't decode drops that entry alone; a frame that
                   can't even be delimited (torn tail, corrupted length)
                   drops the rest. [dropped] = header count − entries
                   loaded. A memo is reseeded with the frames of exactly
                   the loaded entries, the file's own verified bytes. *)
                Option.iter Hashtbl.clear frames;
                let rec go pos k acc dropped =
                  if k = count then (List.rev acc, dropped)
                  else
                    match Durable.read_frame data pos with
                    | Durable.Torn -> (List.rev acc, dropped + (count - k))
                    | Durable.Bad_crc next -> go next (k + 1) acc (dropped + 1)
                    | Durable.Frame (payload, next) -> (
                      match decode_entry payload with
                      | exception (Failure _ | R.Serial.Parse_error (_, _)) ->
                        go next (k + 1) acc (dropped + 1)
                      | (fp, e) as pair ->
                        Option.iter
                          (fun m ->
                            Hashtbl.replace m fp (e, String.sub data pos (next - pos)))
                          frames;
                        go next (k + 1) (pair :: acc) dropped)
                in
                let entries, dropped = go pos1 0 [] 0 in
                Ok ({ meta with baseline; entries }, dropped)))))

let remove = Durable.remove
