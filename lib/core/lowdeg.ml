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

(* What no threshold changes, computed once per sweep: the primal-dual
   capacities over the preserved, non-pruned view tuples, the size of
   the pruned set R'_>, and each sid's preserved degree *)
type sweep = {
  capacity : float array;
  pruned_wide : int;
  degree : int array;
}

let sweep ~prune_wide (a : Arena.t) =
  let ignored =
    if prune_wide then wide_preserved_arena a else Bitset.create (Arena.num_vtuples a)
  in
  {
    capacity = Primal_dual.capacities a ~ignored_preserved:ignored;
    pruned_wide = Bitset.cardinal ignored;
    degree = Array.init (Arena.num_stuples a) (Arena.preserved_degree a);
  }

(* Algorithm 2 at [tau]: the deleted sids, or None when some bad
   witness is entirely barred *)
let deletion_at ?budget (a : Arena.t) s ~tau =
  let deletable = Bitset.create (Arena.num_stuples a) in
  Array.iteri (fun sid d -> if d <= tau then Bitset.add deletable sid) s.degree;
  Log.debug (fun m ->
      m "tau=%d: %d deletable tuples, %d wide preserved pruned" tau
        (Bitset.cardinal deletable) s.pruned_wide);
  let ids = Primal_dual.deletion_ids ?budget a ~capacity:s.capacity ~deletable in
  if Option.is_none ids then Log.debug (fun m -> m "tau=%d infeasible" tau);
  ids

let result_of (a : Arena.t) s ~tau ids =
  let deletion = Arena.to_stuple_set a ids in
  {
    deletion;
    outcome = Side_effect.eval_arena a deletion;
    tau;
    pruned_wide = s.pruned_wide;
    complete = true;
  }

let solve_with_tau_arena ?(prune_wide = true) ?budget (a : Arena.t) ~tau =
  let s = sweep ~prune_wide a in
  Option.map (result_of a s ~tau) (deletion_at ?budget a s ~tau)

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

let solve_arena ?(prune_wide = true) ?domains ?pool ?budget (a : Arena.t) =
  if Bitset.is_empty a.Arena.bad then trivial_result (Side_effect.eval_arena a R.Stuple.Set.empty)
  else begin
    let s = sweep ~prune_wide a in
    (* sweeping the distinct preserved-degrees of the candidate tuples is
       equivalent to sweeping 1..|R| *)
    let taus =
      Array.fold_left (fun acc sid -> s.degree.(sid) :: acc) [] (Arena.candidate_ids a)
      |> List.sort_uniq Int.compare
    in
    (* each threshold is an independent restricted run over the shared
       (immutable) arena and sweep, scored by its side-effect weight
       alone; [Par.map_result] keeps result order, so the fold below is
       deterministic whatever the domain count or pool. The winner is
       the first threshold of least cost, and only it becomes a set and
       an outcome. The sweep is anytime: a threshold killed by the
       budget is dropped and the best of the finished ones is returned
       with [complete = false] — only a sweep with no survivor
       re-raises. *)
    let results =
      Par.map_result ?domains ?pool
        (fun tau ->
          Option.map
            (fun ids -> (tau, ids, Side_effect.arena_cost a ids))
            (deletion_at ?budget a s ~tau))
        taus
    in
    let expired = ref false in
    let best =
      List.fold_left
        (fun best r ->
          match (r, best) with
          | Ok None, _ -> best
          | Ok (Some (_, _, cost)), Some (_, _, b) when b <= cost -> best
          | Ok (Some r), _ -> Some r
          | Error Budget.Expired, _ ->
            expired := true;
            best
          | Error e, _ -> raise e)
        None results
    in
    match best with
    | Some (tau, ids, _) -> { (result_of a s ~tau ids) with complete = not !expired }
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
