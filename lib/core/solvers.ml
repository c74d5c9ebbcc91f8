module R = Relational
module Bitset = Setcover.Bitset

let solution ?decomposition ~name ~certificate deleted outcome =
  {
    Solution.algorithm = name;
    deleted;
    outcome;
    certificate;
    elapsed_ms = 0.0;
    decomposition;
  }

(* ---- decomposition plumbing ----

   Cost slicing shared by the structured tiers: charge each killed
   preserved view tuple to the sub-structure owning the content-minimal
   deleted member of its witness. Witness containment keeps a killed
   tuple's witness inside one witness group / one tree component, so the
   slices are disjoint and sum to the outcome cost. *)
let slice_costs prov ~owner_of ~deleted (outcome : Side_effect.outcome) =
  let weights = prov.Provenance.problem.Problem.weights in
  let acc : (string, float) Hashtbl.t = Hashtbl.create 16 in
  Vtuple.Set.iter
    (fun vt ->
      let hit = R.Stuple.Set.inter (Provenance.witness_of prov vt) deleted in
      match R.Stuple.Set.min_elt_opt hit with
      | None -> ()
      | Some st -> (
        match owner_of st with
        | None -> ()
        | Some label ->
          Hashtbl.replace acc label
            (Weights.get weights vt
            +. Option.value ~default:0.0 (Hashtbl.find_opt acc label))))
    outcome.Side_effect.side_effect;
  fun label -> Option.value ~default:0.0 (Hashtbl.find_opt acc label)

let brute_decomposition (a : Arena.t) (r : Brute.result) =
  let prov = a.Arena.prov in
  (* each group's label is formatted once; members map to it by tuple *)
  let groups =
    List.map
      (fun g -> (Decomposition.key (R.Stuple.Set.min_elt g), g))
      (Brute.witness_groups prov)
  in
  let member : string R.Stuple.Tbl.t = R.Stuple.Tbl.create 64 in
  List.iter
    (fun (label, g) ->
      R.Stuple.Set.iter (fun st -> R.Stuple.Tbl.replace member st label) g)
    groups;
  let owner_of st = R.Stuple.Tbl.find_opt member st in
  let cost_of = slice_costs prov ~owner_of ~deleted:r.Brute.deletion r.Brute.outcome in
  {
    Decomposition.d_vtuples = Arena.live_vtuples a;
    d_parts =
      List.map
        (fun (label, g) ->
          {
            Decomposition.p_label = label;
            p_deleted = R.Stuple.Set.inter r.Brute.deletion g;
            p_cost = cost_of label;
            p_cert = Decomposition.Slice_exact;
          })
        groups;
    d_structure = Decomposition.Witness_groups;
  }

let dp_decomposition (a : Arena.t) (r : Dp_tree.result) =
  let prov = a.Arena.prov in
  let member : (string, string) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (t : Decomposition.forest_tree) ->
      List.iter
        (fun (k, _) -> Hashtbl.replace member k t.Decomposition.ft_pivot)
        t.Decomposition.ft_nodes)
    r.Dp_tree.decomp;
  let owner_of st = Hashtbl.find_opt member (Decomposition.key st) in
  let cost_of = slice_costs prov ~owner_of ~deleted:r.Dp_tree.deletion r.Dp_tree.outcome in
  {
    Decomposition.d_vtuples = Arena.live_vtuples a;
    d_parts =
      List.map
        (fun (t : Decomposition.forest_tree) ->
          let label = t.Decomposition.ft_pivot in
          {
            Decomposition.p_label = label;
            p_deleted =
              R.Stuple.Set.filter
                (fun st -> owner_of st = Some label)
                r.Dp_tree.deletion;
            p_cost = cost_of label;
            p_cert = Decomposition.Slice_exact;
          })
        r.Dp_tree.decomp;
    d_structure = Decomposition.Forest r.Dp_tree.decomp;
  }

module Brute_force : Solver.S = struct
  let name = "brute"
  let exact = true
  let applicable _ = true

  let solve ?budget (a : Arena.t) =
    Brute.solve ?budget a.Arena.prov
    |> Option.map (fun (r : Brute.result) ->
           solution ~name ~certificate:Solution.Exact
             ~decomposition:(brute_decomposition a r)
             r.Brute.deletion r.Brute.outcome)
end

module Primal_dual_s : Solver.S = struct
  let name = "primal-dual"
  let exact = false
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
           ~decomposition:(Primal_dual.decomposition a ~deleted:r.Primal_dual.deletion)
           r.Primal_dual.deletion r.Primal_dual.outcome)
end

(* Theorem 4's ratio is 2τ* ≤ 2√‖V‖ with √‖V‖ the wide-pruning
   threshold. A budget-truncated sweep is only anytime — ratio void. *)
module Lowdeg_s : Solver.S = struct
  let name = "lowdeg"
  let exact = false
  let applicable _ = true

  let solve ?budget (a : Arena.t) =
    let r = Lowdeg.solve_arena ?budget a in
    let cert =
      if r.Lowdeg.complete then
        Solution.Ratio (2.0 *. Lowdeg.wide_cutoff a)
      else Solution.Anytime
    in
    Some
      (solution ~name ~certificate:cert
         ~decomposition:(Lowdeg.decomposition a r)
         r.Lowdeg.deletion r.Lowdeg.outcome)
end

module Dp_tree_s : Solver.S = struct
  let name = "dp-tree"
  let exact = true
  let applicable (a : Arena.t) = Dp_tree.applicable a.Arena.prov

  let solve ?budget (a : Arena.t) =
    match Dp_tree.solve ?budget a.Arena.prov with
    | Ok r ->
      Some
        (solution ~name ~certificate:Solution.Exact
           ~decomposition:(dp_decomposition a r)
           r.Dp_tree.deletion r.Dp_tree.outcome)
    | Error _ -> None
end

module General_s : Solver.S = struct
  let name = "general"
  let exact = false
  let applicable _ = true

  let solve ?budget (a : Arena.t) =
    General_approx.solve ?budget a.Arena.prov
    |> Option.map (fun (r : General_approx.result) ->
           solution ~name
             ~certificate:(Solution.Ratio r.General_approx.claimed_bound)
             ~decomposition:(Primal_dual.decomposition a ~deleted:r.General_approx.deletion)
             r.General_approx.deletion r.General_approx.outcome)
end

module Greedy_s : Solver.S = struct
  let name = "greedy"
  let exact = false
  let applicable _ = true

  let solve ?budget:_ (a : Arena.t) =
    let r = Single_query.solve_greedy_multi a.Arena.prov in
    Some
      (solution ~name ~certificate:Solution.Heuristic
         ~decomposition:(Primal_dual.decomposition a ~deleted:r.Single_query.deletion)
         r.Single_query.deletion r.Single_query.outcome)
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
