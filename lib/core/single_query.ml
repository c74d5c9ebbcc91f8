module R = Relational

type result = {
  deletion : R.Stuple.Set.t;
  outcome : Side_effect.outcome;
}

type error =
  | Not_single_query of int
  | Not_single_deletion of int

let pp_error ppf = function
  | Not_single_query n -> Format.fprintf ppf "instance has %d queries, not 1" n
  | Not_single_deletion n -> Format.fprintf ppf "ΔV has %d tuples, not 1" n

let result_of prov deletion =
  { deletion; outcome = Side_effect.eval prov deletion }

(* Cheapest single witness tuple for one bad view tuple, given the view
   tuples already deleted tuples kill (whose side-effect is sunk). *)
let cheapest_killer (prov : Provenance.t) already_killed vt =
  let weights = prov.Provenance.problem.Problem.weights in
  R.Stuple.Set.fold
    (fun st best ->
      let extra =
        Vtuple.Set.fold
          (fun v acc ->
            if
              Vtuple.Set.mem v prov.Provenance.preserved
              && not (Vtuple.Set.mem v already_killed)
            then acc +. Weights.get weights v
            else acc)
          (Provenance.vtuples_containing prov st)
          0.0
      in
      match best with
      | Some (_, w) when w <= extra -> best
      | _ -> Some (st, extra))
    (Provenance.witness_of prov vt)
    None

let solve (prov : Provenance.t) =
  let nq = List.length prov.Provenance.problem.Problem.queries in
  if nq <> 1 then Error (Not_single_query nq)
  else
    let nd = Vtuple.Set.cardinal prov.Provenance.bad in
    if nd <> 1 then Error (Not_single_deletion nd)
    else
      let vt = Vtuple.Set.choose prov.Provenance.bad in
      match cheapest_killer prov Vtuple.Set.empty vt with
      | Some (st, _) -> Ok (result_of prov (R.Stuple.Set.singleton st))
      | None ->
        (* a view tuple always has a non-empty witness *)
        assert false

(* Each step kills the least bad view tuple still alive. The killed set
   grows by the chosen tuple's row alone, and a tuple killed once stays
   killed, so one ascending walk over ΔV finds every step's least
   survivor: linear in the deletion, not quadratic. *)
let solve_greedy_multi (prov : Provenance.t) =
  let rec go deletion killed bad =
    match bad () with
    | Seq.Nil -> deletion
    | Seq.Cons (vt, rest) when Vtuple.Set.mem vt killed -> go deletion killed rest
    | Seq.Cons (vt, rest) -> (
      match cheapest_killer prov killed vt with
      | Some (st, _) ->
        go (R.Stuple.Set.add st deletion)
          (Vtuple.Set.union killed (Provenance.vtuples_containing prov st))
          rest
      | None -> assert false)
  in
  result_of prov (go R.Stuple.Set.empty Vtuple.Set.empty (Vtuple.Set.to_seq prov.Provenance.bad))
