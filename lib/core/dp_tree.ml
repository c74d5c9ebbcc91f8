module R = Relational
module Tg = Hypergraph.Tuple_graph
module Tbl = R.Stuple.Tbl

let src = Logs.Src.create "deleprop.dp_tree" ~doc:"DPTreeVSE (Algorithm 4)"

module Log = (val Logs.src_log src : Logs.LOG)

type objective = Standard | Balanced

type result = {
  deletion : R.Stuple.Set.t;
  outcome : Side_effect.outcome;
  pivots : R.Stuple.t list;
  optimum : float;
  decomp : Decomposition.forest_tree list;
      (** one recorded tree per non-empty graph component, in [pivots]
          order: node parent/depth/cut/value/slack — what
          {!Decomposition.restrict_forest} replays after a split *)
}

type error =
  | Not_a_forest
  | No_pivot

let pp_error ppf = function
  | Not_a_forest -> Format.fprintf ppf "data dual graph is not a forest"
  | No_pivot -> Format.fprintf ppf "a component has no pivot tuple"

let graph_of (prov : Provenance.t) =
  let paths =
    Vtuple.Map.fold (fun _ path acc -> path :: acc) prov.Provenance.witness_path []
  in
  Tg.of_witness_paths paths

(* Partition view tuples into the components of the graph: one list of
   view tuples per component. *)
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
      Vtuple.Map.fold
        (fun vt w acc ->
          if R.Stuple.Set.mem (R.Stuple.Set.choose w) members then vt :: acc else acc)
        prov.Provenance.witness [])
    !comps

(* The structural half of Algorithm 4: the data dual graph is a forest
   and every graph component holding view tuples has a pivot. Returns,
   per such component, its pivot, the component rooted there and its
   view tuples. Runs no DP and evaluates nothing. *)
let structure (prov : Provenance.t) =
  let graph = graph_of prov in
  if not (Tg.is_forest graph) then Error Not_a_forest
  else begin
    let exception Fail of error in
    try
      Ok
        (List.filter_map
           (fun vts ->
             if vts = [] then None
             else
               let witnesses = List.map (Provenance.witness_of prov) vts in
               match Tg.find_pivot graph witnesses with
               | None -> raise (Fail No_pivot)
               | Some pivot -> (
                 match Tg.Rooted.at graph pivot with
                 | Some rooted -> Some (pivot, rooted, vts)
                 | None -> raise (Fail Not_a_forest)))
           (components_with_vtuples prov graph))
    with Fail e -> Error e
  end

let applicable prov = Result.is_ok (structure prov)

let find0 tbl st = Option.value ~default:0.0 (Tbl.find_opt tbl st)

(* The DP over one component rooted at its pivot. Every per-node table
   is keyed by the tuple itself; [Decomposition.key] is formatted once
   per recorded node. *)
let solve_component ~objective ~budget (prov : Provenance.t) ~deletion
    (pivot, rooted, vts) =
  Log.debug (fun m ->
      m "component pivot %a, %d view tuples" R.Stuple.pp pivot (List.length vts));
  let weights = prov.Provenance.problem.Problem.weights in
  (* endpoint of each view tuple = deepest witness tuple *)
  let w_pres_end : float Tbl.t = Tbl.create 64 in
  let w_bad_end : float Tbl.t = Tbl.create 64 in
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
      let tbl = if Vtuple.Set.mem vt prov.Provenance.bad then w_bad_end else w_pres_end in
      Tbl.replace tbl endpoint (Weights.get weights vt +. find0 tbl endpoint))
    vts;
  (* bottom-up DP *)
  let subtree_pres : float Tbl.t = Tbl.create 64 in
  let value : float Tbl.t = Tbl.create 64 in
  let cut : bool Tbl.t = Tbl.create 64 in
  let slack : float Tbl.t = Tbl.create 64 in
  let order = Tg.Rooted.by_increasing_depth rooted in
  List.iter
    (fun st ->
      Budget.tick_o budget;
      let children = Tg.Rooted.children rooted st in
      let sp =
        find0 w_pres_end st
        +. List.fold_left (fun acc c -> acc +. Tbl.find subtree_pres c) 0.0 children
      in
      Tbl.replace subtree_pres st sp;
      let children_value =
        List.fold_left (fun acc c -> acc +. Tbl.find value c) 0.0 children
      in
      let cut_cost = sp in
      let nocut_cost =
        match objective with
        | Standard -> if Tbl.mem w_bad_end st then infinity else children_value
        | Balanced -> find0 w_bad_end st +. children_value
      in
      if cut_cost < nocut_cost then begin
        Tbl.replace value st cut_cost;
        Tbl.replace cut st true
      end
      else begin
        Tbl.replace value st nocut_cost;
        Tbl.replace cut st false;
        (* how much preserved weight the subtree can lose before cutting
           becomes strictly cheaper *)
        Tbl.replace slack st (cut_cost -. nocut_cost)
      end)
    (List.rev order);
  (* reconstruct: descend while not cut *)
  let deletion = ref deletion in
  let rec walk st =
    if Tbl.find cut st then deletion := R.Stuple.Set.add st !deletion
    else List.iter walk (Tg.Rooted.children rooted st)
  in
  walk pivot;
  (* record the rooted tree: parent/depth plus the DP's per-node
     decision state, keyed by tuple content *)
  let keys : string Tbl.t = Tbl.create 64 in
  List.iter (fun st -> Tbl.replace keys st (Decomposition.key st)) order;
  let nodes =
    List.map
      (fun st ->
        ( Tbl.find keys st,
          {
            Decomposition.fn_parent =
              Option.map (Tbl.find keys) (Tg.Rooted.parent rooted st);
            fn_depth = Tg.Rooted.depth rooted st;
            fn_cut = Tbl.find cut st;
            fn_value = Tbl.find value st;
            fn_slack = find0 slack st;
          } ))
      order
  in
  ( !deletion,
    Tbl.find value pivot,
    { Decomposition.ft_pivot = Tbl.find keys pivot; ft_nodes = nodes } )

let solve ?(objective = Standard) ?budget (prov : Provenance.t) =
  match structure prov with
  | Error e -> Error e
  | Ok comps ->
    let deletion, pivots, optimum, trees =
      List.fold_left
        (fun (deletion, pivots, optimum, trees) ((pivot, _, _) as comp) ->
          let deletion, value, tree =
            solve_component ~objective ~budget prov ~deletion comp
          in
          (deletion, pivot :: pivots, optimum +. value, tree :: trees))
        (R.Stuple.Set.empty, [], 0.0, []) comps
    in
    let outcome = Side_effect.eval prov deletion in
    Ok { deletion; outcome; pivots = List.rev pivots; optimum; decomp = List.rev trees }
