module R = Relational

type result = {
  deletion : R.Stuple.Set.t;
  outcome : Side_effect.outcome;
}

let result_of prov deletion = { deletion; outcome = Side_effect.eval prov deletion }

let solve_exact ?node_budget prov =
  let m = Reduction.to_pos_neg (Arena.build prov) in
  let sol = Setcover.Pos_neg.solve_exact ?node_budget m.Reduction.instance in
  result_of prov (Reduction.deletion_of_pos_neg m sol)

let solve_general prov =
  let m = Reduction.to_pos_neg (Arena.build prov) in
  let sol = Setcover.Pos_neg.solve_approx m.Reduction.instance in
  result_of prov (Reduction.deletion_of_pos_neg m sol)

let solve_dp prov =
  match Dp_tree.solve ~objective:Dp_tree.Balanced prov with
  | Ok r -> Ok (result_of prov r.Dp_tree.deletion)
  | Error e -> Error e

let solve_tree (prov : Provenance.t) =
  let weights = prov.Provenance.problem.Problem.weights in
  let pd = Primal_dual.solve prov in
  (* improvement pass: greedily drop deletions whose marginal balanced
     contribution is negative. Dropping t re-exposes the bad tuples only
     t covers (cost: their weight) but saves the preserved tuples only t
     destroys (gain: their weight). Iterate to a fixed point. *)
  let rec improve deletion =
    let marginal t =
      let rest = R.Stuple.Set.remove t deletion in
      let covered_by_rest = Provenance.kills prov rest in
      let only_t =
        Vtuple.Set.diff (Provenance.vtuples_containing prov t) covered_by_rest
      in
      let re_exposed_bad = Vtuple.Set.inter only_t prov.Provenance.bad in
      let saved_preserved = Vtuple.Set.inter only_t prov.Provenance.preserved in
      Weights.total weights saved_preserved -. Weights.total weights re_exposed_bad
    in
    let droppable =
      R.Stuple.Set.fold
        (fun t best ->
          let m = marginal t in
          match best with
          | Some (_, m') when m' >= m -> best
          | _ when m > 1e-12 -> Some (t, m)
          | _ -> best)
        deletion None
    in
    match droppable with
    | Some (t, _) -> improve (R.Stuple.Set.remove t deletion)
    | None -> deletion
  in
  let candidates =
    [ improve pd.Primal_dual.deletion; R.Stuple.Set.empty; pd.Primal_dual.deletion ]
  in
  let best =
    List.map (fun d -> result_of prov d) candidates
    |> List.sort (fun a b ->
           Float.compare a.outcome.Side_effect.balanced_cost
             b.outcome.Side_effect.balanced_cost)
    |> List.hd
  in
  best

let bound (problem : Problem.t) =
  let l = float_of_int (Problem.max_arity problem) in
  let v = float_of_int (Problem.view_size problem) in
  let dv = float_of_int (max 2 (Problem.deletion_size problem)) in
  2.0 *. sqrt (l *. (v +. dv) *. log dv)
