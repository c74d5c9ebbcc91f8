(* The seed forest-DP kernel over string-keyed hashtables
   ([Stuple.to_string] keys), moved verbatim from lib/core/dp_tree.ml:
   the tuple-keyed kernel must match it result for result, recorded
   trees included. *)

module R = Relational
module Tg = Tuple_graph
open Deleprop

let src = Logs.Src.create "deleprop.dp_tree_reference" ~doc:"seed DPTreeVSE"

module Log = (val Logs.src_log src : Logs.LOG)

let graph_of (prov : Provenance.t) =
  let paths =
    Vtuple.Map.fold (fun _ path acc -> path :: acc) prov.Provenance.witness_path []
  in
  Tg.of_witness_paths paths

(* Partition view tuples into the components of the graph; returns
   (component root witness, vtuples) keyed by an arbitrary component
   representative. *)
let components_with_vtuples (prov : Provenance.t) graph =
  let visited = ref R.Stuple.Set.empty in
  let comps = ref [] in
  List.iter
    (fun v ->
      if not (R.Stuple.Set.mem v !visited) then
        match Tg.Rooted.at graph v with
        | None -> ()
        | Some r ->
          let members = R.Stuple.Set.of_list (Tg.Rooted.by_increasing_depth r) in
          visited := R.Stuple.Set.union !visited members;
          comps := members :: !comps)
    (Tg.vertices graph);
  List.map
    (fun members ->
      let vts =
        Vtuple.Map.fold
          (fun vt w acc ->
            if R.Stuple.Set.mem (R.Stuple.Set.choose w) members then vt :: acc else acc)
          prov.Provenance.witness []
      in
      (members, vts))
    !comps

let solve_reference ?(objective = Dp_tree.Standard) ?budget (prov : Provenance.t) =
  let graph = graph_of prov in
  if not (Tg.is_forest graph) then Error Dp_tree.Not_a_forest
  else begin
    let weights = prov.Provenance.problem.Problem.weights in
    let comps = components_with_vtuples prov graph in
    let exception Fail of Dp_tree.error in
    try
      let deletion, pivots, optimum, trees =
        List.fold_left
          (fun (deletion, pivots, optimum, trees) (_, vts) ->
            if vts = [] then (deletion, pivots, optimum, trees)
            else begin
              let witnesses = List.map (Provenance.witness_of prov) vts in
              match Tg.find_pivot graph witnesses with
              | None -> raise (Fail Dp_tree.No_pivot)
              | Some pivot ->
                Log.debug (fun m ->
                    m "component pivot %a, %d view tuples" R.Stuple.pp pivot
                      (List.length vts));
                let rooted =
                  match Tg.Rooted.at graph pivot with
                  | Some r -> r
                  | None -> raise (Fail Dp_tree.Not_a_forest)
                in
                (* endpoint of each view tuple = deepest witness tuple *)
                let key st = R.Stuple.to_string st in
                let w_pres_end : (string, float) Hashtbl.t = Hashtbl.create 64 in
                let w_bad_end : (string, float) Hashtbl.t = Hashtbl.create 64 in
                List.iter
                  (fun vt ->
                    Budget.tick_o budget;
                    let w = Provenance.witness_of prov vt in
                    let endpoint =
                      R.Stuple.Set.fold
                        (fun v best ->
                          match best with
                          | None -> Some v
                          | Some b ->
                            if Tg.Rooted.depth rooted v > Tg.Rooted.depth rooted b then Some v
                            else best)
                        w None
                      |> Option.get
                    in
                    let tbl =
                      if Vtuple.Set.mem vt prov.Provenance.bad then w_bad_end else w_pres_end
                    in
                    let k = key endpoint in
                    Hashtbl.replace tbl k
                      (Weights.get weights vt
                      +. Option.value ~default:0.0 (Hashtbl.find_opt tbl k)))
                  vts;
                let pres_end st = Option.value ~default:0.0 (Hashtbl.find_opt w_pres_end (key st)) in
                let bad_end st = Option.value ~default:0.0 (Hashtbl.find_opt w_bad_end (key st)) in
                let has_bad_end st = Hashtbl.mem w_bad_end (key st) in
                (* bottom-up DP *)
                let subtree_pres : (string, float) Hashtbl.t = Hashtbl.create 64 in
                let value : (string, float) Hashtbl.t = Hashtbl.create 64 in
                let cut : (string, bool) Hashtbl.t = Hashtbl.create 64 in
                let slack : (string, float) Hashtbl.t = Hashtbl.create 64 in
                let order = Tg.Rooted.by_increasing_depth rooted in
                let order_rev = List.rev order in
                List.iter
                  (fun st ->
                    Budget.tick_o budget;
                    let children = Tg.Rooted.children rooted st in
                    let sp =
                      pres_end st
                      +. List.fold_left
                           (fun acc c -> acc +. Hashtbl.find subtree_pres (key c))
                           0.0 children
                    in
                    Hashtbl.replace subtree_pres (key st) sp;
                    let children_value =
                      List.fold_left
                        (fun acc c -> acc +. Hashtbl.find value (key c))
                        0.0 children
                    in
                    let cut_cost = sp in
                    let nocut_cost =
                      match objective with
                      | Dp_tree.Standard ->
                        if has_bad_end st then infinity else children_value
                      | Balanced -> bad_end st +. children_value
                    in
                    if cut_cost < nocut_cost then begin
                      Hashtbl.replace value (key st) cut_cost;
                      Hashtbl.replace cut (key st) true
                    end
                    else begin
                      Hashtbl.replace value (key st) nocut_cost;
                      Hashtbl.replace cut (key st) false;
                      (* how much preserved weight the subtree can lose
                         before cutting becomes strictly cheaper *)
                      Hashtbl.replace slack (key st) (cut_cost -. nocut_cost)
                    end)
                  order_rev;
                (* reconstruct: descend while not cut *)
                let deletion = ref deletion in
                let rec walk st =
                  if Hashtbl.find cut (key st) then
                    deletion := R.Stuple.Set.add st !deletion
                  else List.iter walk (Tg.Rooted.children rooted st)
                in
                walk pivot;
                (* record the rooted tree: parent/depth plus the DP's
                   per-node decision state, keyed by tuple content *)
                let parent_of : (string, string) Hashtbl.t = Hashtbl.create 64 in
                List.iter
                  (fun st ->
                    List.iter
                      (fun c -> Hashtbl.replace parent_of (key c) (key st))
                      (Tg.Rooted.children rooted st))
                  order;
                let nodes =
                  List.map
                    (fun st ->
                      let k = key st in
                      ( k,
                        {
                          Decomposition.fn_parent = Hashtbl.find_opt parent_of k;
                          fn_depth = Tg.Rooted.depth rooted st;
                          fn_cut = Hashtbl.find cut k;
                          fn_value = Hashtbl.find value k;
                          fn_slack =
                            Option.value ~default:0.0 (Hashtbl.find_opt slack k);
                        } ))
                    order
                in
                let tree =
                  { Decomposition.ft_pivot = key pivot; ft_nodes = nodes }
                in
                ( !deletion,
                  pivot :: pivots,
                  optimum +. Hashtbl.find value (key pivot),
                  tree :: trees )
            end)
          (R.Stuple.Set.empty, [], 0.0, []) comps
      in
      let outcome = Side_effect.eval prov deletion in
      Ok { Dp_tree.deletion; outcome; pivots = List.rev pivots; optimum; decomp = List.rev trees }
    with Fail e -> Error e
  end
