module R = Relational

type result = {
  deletion : R.Stuple.Set.t;
  outcome : Side_effect.outcome;
}

let result_of a deletion =
  let outcome = Side_effect.eval_arena a deletion in
  if outcome.Side_effect.feasible then Some { deletion; outcome } else None

let solve_arena ?node_budget ?budget a =
  Budget.tick_o budget;
  let m = Reduction.to_red_blue a in
  let tick () = Budget.tick_o budget in
  match Setcover.Red_blue.solve_exact ?node_budget ~tick m.Reduction.instance with
  | None -> None
  | Some sol -> result_of a (Reduction.deletion_of_red_blue m sol)

let solve ?node_budget ?budget prov = solve_arena ?node_budget ?budget (Arena.build prov)

let solve_ground_truth ?(max_candidates = 20) (problem : Problem.t) =
  (* candidates: tuples in any witness of a bad view tuple *)
  let candidates =
    List.fold_left
      (fun acc (q : Cq.Query.t) ->
        let bad = Problem.deletion problem q.name in
        if R.Tuple.Set.is_empty bad then acc
        else
          let prov = Cq.Eval.provenance problem.Problem.db q in
          R.Tuple.Set.fold
            (fun t acc ->
              match R.Tuple.Map.find_opt t prov with
              | None -> acc
              | Some witnesses ->
                List.fold_left
                  (fun acc w -> R.Stuple.Set.union acc (Cq.Eval.witness_set w))
                  acc witnesses)
            bad acc)
      R.Stuple.Set.empty problem.Problem.queries
  in
  let candidates = Array.of_list (R.Stuple.Set.elements candidates) in
  let n = Array.length candidates in
  if n > max_candidates then
    invalid_arg
      (Printf.sprintf "Brute.solve_ground_truth: %d candidates exceed the limit %d" n
         max_candidates);
  let best = ref None in
  for mask = 0 to (1 lsl n) - 1 do
    let deletion = ref R.Stuple.Set.empty in
    for i = 0 to n - 1 do
      if mask land (1 lsl i) <> 0 then deletion := R.Stuple.Set.add candidates.(i) !deletion
    done;
    let outcome = Side_effect.eval_ground_truth problem !deletion in
    if outcome.Side_effect.feasible then
      match !best with
      | Some b when b.outcome.Side_effect.cost <= outcome.Side_effect.cost -> ()
      | _ -> best := Some { deletion = !deletion; outcome }
  done;
  !best
