(* The set-and-map solver bodies the arena solvers replaced, moved from
   lib/core (reduction.ml, brute.ml, general_approx.ml,
   single_query.ml), and the tuple-graph forest test dp_tree.ml ran:
   each arena version must match its oracle here bit for bit. *)

module R = Relational
open Deleprop

(* ---- reduction.ml: the Red-Blue / Positive-Negative images ---- *)

(* Shared scaffolding: candidate tuples, bad indexing, touched preserved
   indexing, and the per-candidate (preserved, bad) membership sets. *)
let skeleton (prov : Provenance.t) =
  let candidates = R.Stuple.Set.elements (Provenance.candidates prov) in
  let set_tuple = Array.of_list candidates in
  let blue_vtuple = Array.of_list (Vtuple.Set.elements prov.Provenance.bad) in
  let blue_index =
    Array.to_seq blue_vtuple |> Seq.mapi (fun i vt -> (vt, i)) |> Vtuple.Map.of_seq
  in
  let touched_preserved =
    List.fold_left
      (fun acc st ->
        Vtuple.Set.union acc
          (Vtuple.Set.inter (Provenance.vtuples_containing prov st) prov.Provenance.preserved))
      Vtuple.Set.empty candidates
  in
  let red_vtuple = Array.of_list (Vtuple.Set.elements touched_preserved) in
  let red_index =
    Array.to_seq red_vtuple |> Seq.mapi (fun i vt -> (vt, i)) |> Vtuple.Map.of_seq
  in
  let members st =
    let vts = Provenance.vtuples_containing prov st in
    Vtuple.Set.fold
      (fun vt (reds, blues) ->
        match Vtuple.Map.find_opt vt blue_index with
        | Some b -> (reds, Setcover.Iset.add b blues)
        | None -> (
          match Vtuple.Map.find_opt vt red_index with
          | Some r -> (Setcover.Iset.add r reds, blues)
          | None -> (reds, blues)))
      vts
      (Setcover.Iset.empty, Setcover.Iset.empty)
  in
  let weights = prov.Provenance.problem.Problem.weights in
  let red_weights = Array.map (Weights.get weights) red_vtuple in
  let blue_weights = Array.map (Weights.get weights) blue_vtuple in
  (set_tuple, red_vtuple, blue_vtuple, red_weights, blue_weights, members)

let to_red_blue prov =
  let set_tuple, red_vtuple, blue_vtuple, red_weights, _, members = skeleton prov in
  let sets =
    Array.to_list set_tuple
    |> List.map (fun st ->
           let reds, blues = members st in
           { Setcover.Red_blue.label = R.Stuple.to_string st; red = reds; blue = blues })
  in
  let instance =
    Setcover.Red_blue.make ~red_weights ~num_blue:(Array.length blue_vtuple) sets
  in
  { Reduction.instance; set_tuple; red_vtuple; blue_vtuple }

let to_pos_neg prov =
  let set_tuple, neg_vtuple, pos_vtuple, neg_weights, pos_weights, members = skeleton prov in
  let sets =
    Array.to_list set_tuple
    |> List.map (fun st ->
           let negs, poss = members st in
           { Setcover.Pos_neg.label = R.Stuple.to_string st; pos = poss; neg = negs })
  in
  let instance = Setcover.Pos_neg.make ~pos_weights ~neg_weights sets in
  { Reduction.instance; set_tuple; neg_vtuple; pos_vtuple }

(* ---- brute.ml and general_approx.ml over that image ---- *)

let brute ?node_budget prov =
  let m = to_red_blue prov in
  match Setcover.Red_blue.solve_exact ?node_budget m.Reduction.instance with
  | None -> None
  | Some sol ->
    let deletion = Reduction.deletion_of_red_blue m sol in
    let outcome = Side_effect.eval prov deletion in
    if outcome.Side_effect.feasible then Some { Brute.deletion; outcome } else None

let bound (prov : Provenance.t) =
  let l = float_of_int (Problem.max_arity prov.Provenance.problem) in
  let v = float_of_int (Vtuple.Map.cardinal prov.Provenance.witness) in
  let dv = float_of_int (max 2 (Vtuple.Set.cardinal prov.Provenance.bad)) in
  2.0 *. sqrt (l *. v *. log dv)

let general prov =
  let m = to_red_blue prov in
  match Setcover.Red_blue.solve_approx m.Reduction.instance with
  | None -> None
  | Some sol ->
    let deletion = Reduction.deletion_of_red_blue m sol in
    Some
      { General_approx.deletion; outcome = Side_effect.eval prov deletion;
        claimed_bound = bound prov }

(* Plain subset enumeration over the candidates; [max_candidates]
   (default 20) guards the 2^n blowup. *)
let solve_enum ?(max_candidates = 20) prov =
  let candidates = Array.of_list (R.Stuple.Set.elements (Provenance.candidates prov)) in
  let n = Array.length candidates in
  if n > max_candidates then
    invalid_arg
      (Printf.sprintf "Brute.solve_enum: %d candidates exceed the limit %d" n
         max_candidates);
  let best = ref None in
  for mask = 0 to (1 lsl n) - 1 do
    let deletion = ref R.Stuple.Set.empty in
    for i = 0 to n - 1 do
      if mask land (1 lsl i) <> 0 then deletion := R.Stuple.Set.add candidates.(i) !deletion
    done;
    let outcome = Side_effect.eval prov !deletion in
    if outcome.Side_effect.feasible then
      match !best with
      | Some (b : Brute.result) when b.Brute.outcome.Side_effect.cost <= outcome.Side_effect.cost -> ()
      | _ -> best := Some { Brute.deletion = !deletion; outcome }
  done;
  !best

(* ---- single_query.ml ---- *)

let result_of prov deletion =
  { Single_query.deletion; outcome = Side_effect.eval prov deletion }

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

let single (prov : Provenance.t) =
  let nq = List.length prov.Provenance.problem.Problem.queries in
  if nq <> 1 then Error (Single_query.Not_single_query nq)
  else
    let nd = Vtuple.Set.cardinal prov.Provenance.bad in
    if nd <> 1 then Error (Single_query.Not_single_deletion nd)
    else
      match cheapest_killer prov Vtuple.Set.empty (Vtuple.Set.choose prov.Provenance.bad) with
      | Some (st, _) -> Ok (result_of prov (R.Stuple.Set.singleton st))
      | None -> assert false

let greedy (prov : Provenance.t) =
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

(* ---- dp_tree.ml: the forest-and-pivot test on the tuple graph ---- *)

(* Over the view tuples [vids] of an arena: the graph of their path
   rows, its components by ascending least vertex (consed, so the list
   descends), each holding the view tuples whose least witness member
   it contains, and {!Tuple_graph.find_pivot} per component. The pivots
   come back as sids. *)
let pivots (a : Arena.t) vids =
  let tuples row = Array.to_list (Array.map (Array.get a.Arena.stuples) row) in
  let graph =
    Tuple_graph.of_witness_paths (Array.to_list (Array.map (fun v -> tuples a.Arena.paths.(v)) vids))
  in
  if not (Tuple_graph.is_forest graph) then Error Dp_tree.Not_a_forest
  else begin
    let visited = ref R.Stuple.Set.empty and comps = ref [] in
    List.iter
      (fun v ->
        if not (R.Stuple.Set.mem v !visited) then
          match Tuple_graph.Rooted.at graph v with
          | None -> ()
          | Some r ->
            let members = R.Stuple.Set.of_list (Tuple_graph.Rooted.by_increasing_depth r) in
            visited := R.Stuple.Set.union !visited members;
            comps := members :: !comps)
      (Tuple_graph.vertices graph);
    let witness v = R.Stuple.Set.of_list (tuples a.Arena.witness.(v)) in
    let exception No_pivot in
    try
      Ok
        (List.map
           (fun members ->
             let ws =
               Array.to_list vids |> List.map witness
               |> List.filter (fun w -> R.Stuple.Set.mem (R.Stuple.Set.min_elt w) members)
             in
             match Tuple_graph.find_pivot graph ws with
             | Some p -> Arena.stuple_id a p
             | None -> raise No_pivot)
           !comps)
    with No_pivot -> Error Dp_tree.No_pivot
  end
