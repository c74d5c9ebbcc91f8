module Bitset = Setcover.Bitset

(* only the forest DP records a decomposition: its trees, which a split
   replays ([Planner.seed_fragments]); every other answer carries over
   to a fragment unchanged *)
let solution ?(decomposition = []) ~name ~certificate deleted outcome =
  {
    Solution.algorithm = name;
    deleted;
    outcome;
    certificate;
    elapsed_ms = 0.0;
    decomposition;
  }

module Brute_force : Solver.S = struct
  let name = "brute"
  let applicable _ = true

  let solve ?budget (a : Arena.t) =
    Brute.solve ?budget (Arena.provenance a)
    |> Option.map (fun (r : Brute.result) ->
           solution ~name ~certificate:Solution.Exact r.Brute.deletion
             r.Brute.outcome)
end

module Primal_dual_s : Solver.S = struct
  let name = "primal-dual"
  let applicable _ = true

  let solve ?budget (a : Arena.t) =
    (* [Primal_dual.solve] minus the arena compile: full deletable set,
       nothing ignored *)
    match
      Primal_dual.solve_arena ?budget a
        ~deletable:(Bitset.full (Arena.num_stuples a))
        ~ignored_preserved:(Bitset.create (Arena.num_vtuples a))
    with
    | None -> None
    | Some r ->
      Some
        (solution ~name
           ~certificate:(Solution.Dual_bound r.Primal_dual.dual_value)
           r.Primal_dual.deletion r.Primal_dual.outcome)
end

(* Theorem 4's ratio is 2τ* ≤ 2√‖V‖ with √‖V‖ the wide-pruning
   threshold. A budget-truncated sweep is only anytime — ratio void. *)
module Lowdeg_s : Solver.S = struct
  let name = "lowdeg"
  let applicable _ = true

  let solve ?budget (a : Arena.t) =
    let r = Lowdeg.solve_arena ?budget a in
    let cert =
      if r.Lowdeg.complete then
        Solution.Ratio (2.0 *. Lowdeg.wide_cutoff a)
      else Solution.Anytime
    in
    Some
      (solution ~name ~certificate:cert r.Lowdeg.deletion r.Lowdeg.outcome)
end

module Dp_tree_s : Solver.S = struct
  let name = "dp-tree"
  let applicable (a : Arena.t) = Dp_tree.applicable (Arena.provenance a)

  let solve ?budget (a : Arena.t) =
    match Dp_tree.solve ?budget (Arena.provenance a) with
    | Ok r ->
      Some
        (solution ~name ~certificate:Solution.Exact
           ~decomposition:r.Dp_tree.decomp
           r.Dp_tree.deletion r.Dp_tree.outcome)
    | Error _ -> None
end

module General_s : Solver.S = struct
  let name = "general"
  let applicable _ = true

  let solve ?budget (a : Arena.t) =
    General_approx.solve ?budget (Arena.provenance a)
    |> Option.map (fun (r : General_approx.result) ->
           solution ~name
             ~certificate:(Solution.Ratio r.General_approx.claimed_bound)
             r.General_approx.deletion r.General_approx.outcome)
end

module Greedy_s : Solver.S = struct
  let name = "greedy"
  let applicable _ = true

  let solve ?budget:_ (a : Arena.t) =
    let r = Single_query.solve_greedy_multi (Arena.provenance a) in
    Some
      (solution ~name ~certificate:Solution.Heuristic r.Single_query.deletion
         r.Single_query.outcome)
end

let () =
  List.iter Solver.register
    [
      (module Brute_force : Solver.S);
      (module Primal_dual_s);
      (module Lowdeg_s);
      (module Dp_tree_s);
      (module General_s);
      (module Greedy_s);
    ]

let registered () = Solver.all ()

let rec is_registered name = function
  | [] -> false
  | (module S : Solver.S) :: rest -> String.equal S.name name || is_registered name rest

(* a loop, not [List.iter] with closures: the planner checks its [only]
   list once per shard tier *)
let rec check_names ~caller = function
  | [] -> ()
  | name :: rest ->
    if not (is_registered name (registered ())) then
      invalid_arg
        (Printf.sprintf "%s: unknown algorithm %S (known: %s)" caller name
           (String.concat ", " (Solver.names ())));
    check_names ~caller rest
