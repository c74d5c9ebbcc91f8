(* The seed LowDeg implementation (per-τ set-based restriction over the
   seed primal-dual), moved verbatim from lib/core/lowdeg.ml. *)

module R = Relational
open Deleprop

let preserved_degree (prov : Provenance.t) st =
  Vtuple.Set.cardinal
    (Vtuple.Set.inter (Provenance.vtuples_containing prov st) prov.Provenance.preserved)

let wide_preserved (prov : Provenance.t) =
  let v = float_of_int (Problem.view_size prov.Provenance.problem) in
  let threshold = sqrt v in
  Vtuple.Set.filter
    (fun vt ->
      float_of_int (R.Stuple.Set.cardinal (Provenance.witness_of prov vt)) > threshold)
    prov.Provenance.preserved

let trivial_result prov =
  {
    Lowdeg.deletion = R.Stuple.Set.empty;
    outcome = Side_effect.eval prov R.Stuple.Set.empty;
    tau = 0;
    pruned_wide = 0;
    complete = true;
  }

let best_of results =
  List.fold_left
    (fun best r ->
      match r with
      | None -> best
      | Some (r : Lowdeg.result) -> (
        match best with
        | Some (b : Lowdeg.result)
          when b.Lowdeg.outcome.Side_effect.cost <= r.Lowdeg.outcome.Side_effect.cost
          -> best
        | _ -> Some r))
    None results

let solve_with_tau_reference ?(prune_wide = true) (prov : Provenance.t) ~tau =
  let deletable =
    R.Instance.fold
      (fun st acc -> if preserved_degree prov st <= tau then R.Stuple.Set.add st acc else acc)
      prov.Provenance.problem.Problem.db R.Stuple.Set.empty
  in
  let ignored = if prune_wide then wide_preserved prov else Vtuple.Set.empty in
  match
    Pd_reference.solve_general_reference prov ~reverse_delete:true ~deletable
      ~ignored_preserved:ignored
  with
  | None -> None
  | Some pd ->
    Some
      {
        Lowdeg.deletion = pd.Primal_dual.deletion;
        outcome = pd.Primal_dual.outcome;
        tau;
        pruned_wide = Vtuple.Set.cardinal ignored;
        complete = true;
      }

let solve_reference ?(prune_wide = true) (prov : Provenance.t) =
  if Vtuple.Set.is_empty prov.Provenance.bad then trivial_result prov
  else begin
    let taus =
      R.Stuple.Set.fold
        (fun st acc -> preserved_degree prov st :: acc)
        (Provenance.candidates prov) []
      |> List.sort_uniq Int.compare
    in
    let results =
      List.map (fun tau -> solve_with_tau_reference ~prune_wide prov ~tau) taus
    in
    match best_of results with
    | Some r -> r
    | None -> assert false
  end
