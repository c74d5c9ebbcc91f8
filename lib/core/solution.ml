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
