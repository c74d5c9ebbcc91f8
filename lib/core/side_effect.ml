module R = Relational
module Bitset = Setcover.Bitset

type outcome = {
  deleted : R.Stuple.Set.t;
  side_effect : Vtuple.Set.t;
  residual_bad : Vtuple.Set.t;
  feasible : bool;
  cost : float;
  balanced_cost : float;
}

let outcome_of ~problem ~bad ~preserved ~deleted ~killed =
  let weights = problem.Problem.weights in
  let side_effect = Vtuple.Set.inter killed preserved in
  let residual_bad = Vtuple.Set.diff bad killed in
  let cost = Weights.total weights side_effect in
  {
    deleted;
    side_effect;
    residual_bad;
    feasible = Vtuple.Set.is_empty residual_bad;
    cost;
    balanced_cost = cost +. Weights.total weights residual_bad;
  }

let eval (prov : Provenance.t) deleted =
  let killed = Provenance.kills prov deleted in
  outcome_of ~problem:prov.Provenance.problem ~bad:prov.Provenance.bad
    ~preserved:prov.Provenance.preserved ~deleted ~killed

(* The same outcome off the arena's rows: killed are the live vids in
   the [containing] rows of the deleted live sids. One ascending walk
   over killed splits off the side effect (killed ∧ preserved) and one
   over ΔV the residual (bad ∧ ¬killed), so the pass costs the rows it
   touches plus bitset words. Weights sum in ascending vid order, which
   is [Vtuple.compare] order — [Weights.total]'s fold, bit for bit. *)
let eval_arena (a : Arena.t) deleted =
  let killed = Bitset.create (Arena.num_vtuples a) in
  R.Stuple.Set.iter
    (fun st ->
      match Arena.find_live_sid a st with
      | Some sid ->
        Array.iter
          (fun vid -> if not (Bitset.mem a.Arena.dead_v vid) then Bitset.add killed vid)
          a.Arena.containing.(sid)
      | None -> ())
    deleted;
  let vt vid = a.Arena.vtuples.(vid) in
  let side_l = ref [] and cost = ref 0.0 in
  Bitset.iter
    (fun vid ->
      if Bitset.mem a.Arena.preserved vid then begin
        side_l := vt vid :: !side_l;
        cost := !cost +. a.Arena.weights.(vid)
      end)
    killed;
  let residual_l = ref [] and residual_w = ref 0.0 in
  Bitset.iter_diff
    (fun vid ->
      residual_l := vt vid :: !residual_l;
      residual_w := !residual_w +. a.Arena.weights.(vid))
    a.Arena.bad killed;
  {
    deleted;
    side_effect = Vtuple.Set.of_list !side_l;
    residual_bad = Vtuple.Set.of_list !residual_l;
    feasible = !residual_l = [];
    cost = !cost;
    balanced_cost = !cost +. !residual_w;
  }

let eval_ground_truth (problem : Problem.t) deleted =
  let db' = R.Instance.delete problem.Problem.db deleted in
  let vtuples_of qname view =
    R.Tuple.Set.fold (fun t acc -> Vtuple.Set.add (Vtuple.make qname t) acc) view
      Vtuple.Set.empty
  in
  let killed, all =
    List.fold_left
      (fun (killed, all) (q : Cq.Query.t) ->
        let before = Cq.Eval.evaluate problem.Problem.db q in
        let after = Cq.Eval.evaluate db' q in
        let gone = R.Tuple.Set.diff before after in
        ( Vtuple.Set.union killed (vtuples_of q.name gone),
          Vtuple.Set.union all (vtuples_of q.name before) ))
      (Vtuple.Set.empty, Vtuple.Set.empty)
      problem.Problem.queries
  in
  let bad =
    Smap.fold
      (fun qname ts acc -> Vtuple.Set.union acc (vtuples_of qname ts))
      problem.Problem.deletions Vtuple.Set.empty
  in
  let preserved = Vtuple.Set.diff all bad in
  outcome_of ~problem ~bad ~preserved ~deleted ~killed

let pp ppf o =
  Format.fprintf ppf
    "deleted %d source tuples; %d side-effect view tuples (cost %g); %s"
    (R.Stuple.Set.cardinal o.deleted)
    (Vtuple.Set.cardinal o.side_effect)
    o.cost
    (if o.feasible then "feasible"
     else Printf.sprintf "INFEASIBLE (%d bad tuples survive)" (Vtuple.Set.cardinal o.residual_bad))
