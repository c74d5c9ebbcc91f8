module R = Relational

type certificate =
  | Exact
  | Dual_bound of float
  | Ratio of float
  | Heuristic
  | Anytime
  | Composite of {
      shards : int;
      factor : float option;
    }

type t = {
  algorithm : string;
  deleted : R.Stuple.Set.t;
  outcome : Side_effect.outcome;
  elapsed_ms : float;
  certificate : certificate;
  decomposition : Decomposition.forest_tree list;
}

let cost s = s.outcome.Side_effect.cost
let feasible s = s.outcome.Side_effect.feasible

(* stable sort, cost only: ties keep the solver-list order, so ranking is
   a pure function of the solver outputs — never of wall-clock noise.
   (The engine's differential tests compare ranked lists bit for bit.) *)
let rank solutions =
  solutions |> List.filter feasible
  |> List.stable_sort (fun a b -> Float.compare (cost a) (cost b))

let pp_certificate ppf = function
  | Exact -> Format.fprintf ppf "exact"
  | Dual_bound v -> Format.fprintf ppf "dual bound %g" v
  | Ratio r -> Format.fprintf ppf "ratio %g" r
  | Heuristic -> Format.fprintf ppf "heuristic"
  | Anytime -> Format.fprintf ppf "anytime (budget hit)"
  | Composite { shards; factor = Some f } ->
    Format.fprintf ppf "composite over %d shard(s), factor %g" shards f
  | Composite { shards; factor = None } ->
    Format.fprintf ppf "composite over %d shard(s), no factor" shards

let pp ppf s =
  Format.fprintf ppf "@[<v 2>%s (%a, %.2f ms): cost %g, delete %d tuple(s)%a@]"
    s.algorithm pp_certificate s.certificate s.elapsed_ms (cost s)
    (R.Stuple.Set.cardinal s.deleted)
    (fun ppf set ->
      R.Stuple.Set.iter (fun st -> Format.fprintf ppf "@ - %a" R.Stuple.pp st) set)
    s.deleted

(* ---- JSON ---- *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* shortest decimal that round-trips the float *)
let json_float f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else
    let s = Printf.sprintf "%.15g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let to_json s =
  let b = Buffer.create 256 in
  Buffer.add_string b "{\"algorithm\":\"";
  Buffer.add_string b (json_escape s.algorithm);
  Buffer.add_string b "\",\"deleted\":[";
  let first = ref true in
  R.Stuple.Set.iter
    (fun st ->
      if not !first then Buffer.add_char b ',';
      first := false;
      Buffer.add_char b '"';
      Buffer.add_string b (json_escape (Format.asprintf "%a" R.Stuple.pp st));
      Buffer.add_char b '"')
    s.deleted;
  let o = s.outcome in
  Buffer.add_string b
    (Printf.sprintf
       "],\"feasible\":%b,\"cost\":%s,\"balanced_cost\":%s,\"side_effect\":%d,\"residual_bad\":%d,\"elapsed_ms\":%s,"
       o.Side_effect.feasible (json_float o.Side_effect.cost)
       (json_float o.Side_effect.balanced_cost)
       (Vtuple.Set.cardinal o.Side_effect.side_effect)
       (Vtuple.Set.cardinal o.Side_effect.residual_bad)
       (json_float s.elapsed_ms));
  Buffer.add_string b "\"certificate\":";
  (match s.certificate with
  | Exact -> Buffer.add_string b "{\"kind\":\"exact\"}"
  | Heuristic -> Buffer.add_string b "{\"kind\":\"heuristic\"}"
  | Anytime -> Buffer.add_string b "{\"kind\":\"anytime\"}"
  | Dual_bound v ->
    Buffer.add_string b (Printf.sprintf "{\"kind\":\"dual-bound\",\"value\":%s}" (json_float v))
  | Ratio r ->
    Buffer.add_string b (Printf.sprintf "{\"kind\":\"ratio\",\"value\":%s}" (json_float r))
  | Composite { shards; factor } ->
    Buffer.add_string b (Printf.sprintf "{\"kind\":\"composite\",\"shards\":%d" shards);
    (match factor with
    | Some f -> Buffer.add_string b (Printf.sprintf ",\"value\":%s}" (json_float f))
    | None -> Buffer.add_char b '}'));
  Buffer.add_char b '}';
  Buffer.contents b
