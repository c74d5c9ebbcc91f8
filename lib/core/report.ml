(* Shared JSON encoding for machine-readable reports.

   One tiny JSON AST plus the encoders every front end shares —
   subcommand-specific code assembles [t] values instead of hand-rolling
   strings, so field spellings and escaping live in exactly one place.
   [schema_version] stamps every top-level report object; bump it
   whenever a field is renamed or removed (additions are compatible). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list
  | Raw of string

(* version 5: the engine stats drop the index-build count (always 1)
   and the patched-insert count (always equal to "tuples_inserted").
   Version 4: a solution object no longer carries the "decomposition"
   summary (structure name, part count, solved ‖V‖). Version 3 dropped
   the deprecated index_hits / cache_hits alias fields (index_retargets
   is the only spelling) and gave stats the snapshot status object.
   Version 2 was the unified Engine.Stats
   encoding (index_retargets, shard_cache_hits, tombstone_ratio,
   compactions) with schema_version stamped on solve/batch reports;
   version 1 the implicit pre-PR-7 ad-hoc encoding. *)
let schema_version = 5

let escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* a decimal that reads back as the same float: an integer keeps one
   decimal place, anything else takes 15 significant digits when they
   read back and 17, always enough, when they do not *)
let float_to_string f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else
    let s = Printf.sprintf "%.15g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let rec write b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float f -> Buffer.add_string b (float_to_string f)
  | String s ->
    Buffer.add_char b '"';
    Buffer.add_string b (escape s);
    Buffer.add_char b '"'
  | List items ->
    Buffer.add_char b '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char b ',';
        write b v)
      items;
    Buffer.add_char b ']'
  | Obj fields ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_char b '"';
        Buffer.add_string b (escape k);
        Buffer.add_string b "\":";
        write b v)
      fields;
    Buffer.add_char b '}'
  | Raw s -> Buffer.add_string b s

let to_string v =
  let b = Buffer.create 256 in
  write b v;
  Buffer.contents b

(* ---- shared encoders ---- *)

let certificate : Solution.certificate -> t = function
  | Solution.Exact -> Obj [ ("kind", String "exact") ]
  | Solution.Heuristic -> Obj [ ("kind", String "heuristic") ]
  | Solution.Anytime -> Obj [ ("kind", String "anytime") ]
  | Solution.Dual_bound v -> Obj [ ("kind", String "dual-bound"); ("value", Float v) ]
  | Solution.Ratio r -> Obj [ ("kind", String "ratio"); ("value", Float r) ]
  | Solution.Composite { shards; factor } ->
    Obj
      (("kind", String "composite") :: ("shards", Int shards)
      :: (match factor with Some f -> [ ("value", Float f) ] | None -> []))

let solution (s : Solution.t) =
  let o = s.Solution.outcome in
  Obj
    [
      ("algorithm", String s.Solution.algorithm);
      ( "deleted",
        List
          (List.map
             (fun st -> String (Format.asprintf "%a" Relational.Stuple.pp st))
             (Relational.Stuple.Set.elements s.Solution.deleted)) );
      ("feasible", Bool o.Side_effect.feasible);
      ("cost", Float o.Side_effect.cost);
      ("balanced_cost", Float o.Side_effect.balanced_cost);
      ("side_effect", Int (Vtuple.Set.cardinal o.Side_effect.side_effect));
      ("residual_bad", Int (Vtuple.Set.cardinal o.Side_effect.residual_bad));
      ("elapsed_ms", Float s.Solution.elapsed_ms);
      ("certificate", certificate s.Solution.certificate);
    ]

let failure (f : Portfolio.failure) =
  Obj
    [
      ("algorithm", String f.Portfolio.algorithm);
      ("elapsed_ms", Raw (Printf.sprintf "%.3f" f.Portfolio.elapsed_ms));
      ( "reason",
        String
          (match f.Portfolio.reason with
          | Portfolio.Timed_out -> "timeout"
          | Portfolio.Crashed _ -> "crash") );
      ( "detail",
        match f.Portfolio.reason with
        | Portfolio.Timed_out -> Null
        | Portfolio.Crashed msg -> String msg );
    ]

let shard_decision (d : Planner.shard_decision) =
  Obj
    [
      ("component", Int d.Planner.component);
      ("stuples", Int d.Planner.stuples);
      ("vtuples", Int d.Planner.vtuples);
      ("bad", Int d.Planner.bad);
      ("winner", String d.Planner.winner);
      ("cost", Float d.Planner.cost);
      ("exact", Bool d.Planner.exact);
      ("degraded", Bool d.Planner.degraded);
      ("cached", Bool d.Planner.cached);
      ( "fingerprint",
        match d.Planner.fingerprint with
        | None -> Null
        | Some fp -> String (Fingerprint.to_hex fp) );
    ]

(* [versioned fields] — a top-level report object, schema stamp first *)
let versioned fields = Obj (("schema_version", Int schema_version) :: fields)
