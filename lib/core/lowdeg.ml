module R = Relational
module Bitset = Setcover.Bitset

let src = Logs.Src.create "deleprop.lowdeg" ~doc:"LowDegTreeVSE (Algorithms 2-3)"

module Log = (val Logs.src_log src : Logs.LOG)

type result = {
  deletion : R.Stuple.Set.t;
  outcome : Side_effect.outcome;
  tau : int;
  pruned_wide : int;
  complete : bool;
}

(* ---- arena path ---- *)

(* the wide-pruning threshold √‖V‖ (Claim 2). [Arena.live_vtuples]
   counts exactly Σ_q |view q| — the provenance indexes one vtuple per
   view tuple per query, and tombstoned slots are not view tuples — so
   this avoids [Problem.view_size]'s full query re-evaluation over the
   database while staying invariant under compaction. *)
let wide_cutoff (a : Arena.t) =
  sqrt (float_of_int (Arena.live_vtuples a))

let wide_preserved_arena (a : Arena.t) =
  let threshold = wide_cutoff a in
  let wide = Bitset.create (Arena.num_vtuples a) in
  Bitset.iter
    (fun vid ->
      if float_of_int (Array.length a.Arena.witness.(vid)) > threshold then
        Bitset.add wide vid)
    a.Arena.preserved;
  wide

let solve_with_tau_arena ?(prune_wide = true) ?budget (a : Arena.t) ~tau =
  let ns = Arena.num_stuples a in
  let deletable = Bitset.create ns in
  for sid = 0 to ns - 1 do
    if Arena.preserved_degree a sid <= tau then Bitset.add deletable sid
  done;
  let ignored =
    if prune_wide then wide_preserved_arena a
    else Bitset.create (Arena.num_vtuples a)
  in
  Log.debug (fun m ->
      m "tau=%d: %d deletable tuples, %d wide preserved pruned" tau
        (Bitset.cardinal deletable) (Bitset.cardinal ignored));
  match Primal_dual.solve_arena ?budget a ~deletable ~ignored_preserved:ignored with
  | None ->
    Log.debug (fun m -> m "tau=%d infeasible" tau);
    None
  | Some pd ->
    Some
      {
        deletion = pd.Primal_dual.deletion;
        outcome = pd.Primal_dual.outcome;
        tau;
        pruned_wide = Bitset.cardinal ignored;
        complete = true;
      }

let solve_with_tau ?prune_wide ?budget (prov : Provenance.t) ~tau =
  solve_with_tau_arena ?prune_wide ?budget (Arena.build prov) ~tau

let trivial_result outcome =
  {
    deletion = R.Stuple.Set.empty;
    outcome;
    tau = 0;
    pruned_wide = 0;
    complete = true;
  }

let best_of results =
  List.fold_left
    (fun best r ->
      match r with
      | None -> best
      | Some r -> (
        match best with
        | Some b when b.outcome.Side_effect.cost <= r.outcome.Side_effect.cost -> best
        | _ -> Some r))
    None results

let solve_arena ?(prune_wide = true) ?domains ?pool ?budget (a : Arena.t) =
  if Bitset.is_empty a.Arena.bad then trivial_result (Side_effect.eval_arena a R.Stuple.Set.empty)
  else begin
    (* sweeping the distinct preserved-degrees of the candidate tuples is
       equivalent to sweeping 1..|R| *)
    let taus =
      Array.fold_left
        (fun acc sid -> Arena.preserved_degree a sid :: acc)
        [] (Arena.candidate_ids a)
      |> List.sort_uniq Int.compare
    in
    (* each threshold is an independent restricted run over the shared
       (immutable) arena; [Par.map_result] keeps result order, so the
       fold below is deterministic whatever the domain count or pool.
       The sweep is anytime: a threshold killed by the budget is dropped
       and the best of the finished ones is returned with
       [complete = false] — only a sweep with no survivor re-raises. *)
    let results =
      Par.map_result ?domains ?pool
        (fun tau -> solve_with_tau_arena ~prune_wide ?budget a ~tau)
        taus
    in
    let expired = ref false in
    let finished =
      List.filter_map
        (function
          | Ok r -> r
          | Error Budget.Expired ->
            expired := true;
            None
          | Error e -> raise e)
        results
    in
    match best_of (List.map Option.some finished) with
    | Some r -> if !expired then { r with complete = false } else r
    | None ->
      if !expired then raise Budget.Expired
      else
        (* cannot happen: the max preserved-degree bars no candidate *)
        assert false
  end

let solve ?prune_wide ?domains ?pool ?budget (prov : Provenance.t) =
  if Vtuple.Set.is_empty prov.Provenance.bad then
    trivial_result (Side_effect.eval prov R.Stuple.Set.empty)
  else solve_arena ?prune_wide ?domains ?pool ?budget (Arena.build prov)

let bound (problem : Problem.t) = 2.0 *. sqrt (float_of_int (Problem.view_size problem))
