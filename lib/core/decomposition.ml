(* The forest-DP answer's recorded trees, keyed by tuple *content*
   (fact strings) rather than arena ids — so a tree survives
   compaction, component renumbering and re-materialization without
   any remapping. *)

type forest_node = {
  fn_parent : string option;
  fn_depth : int;
  fn_cut : bool;
  fn_value : float;
  fn_slack : float;
}

type forest_tree = {
  ft_pivot : string;
  ft_nodes : (string * forest_node) list;
}

let key st = Relational.Stuple.to_string st

(* ---- forest restriction ---- *)

(* [restrict_forest tree ~surviving ~lost_end] — project a recorded
   forest-DP tree onto the fragment of surviving nodes.

   [surviving] tests a node key; [lost_end] charges the weight of every
   preserved view tuple lost with the split to its recorded endpoint
   (the deepest witness member under the recorded depths). The
   projection is sound — the restricted tree is what a fresh DP on the
   fragment computes, with the same cut frontier — iff:
   - the pivot survives (the caller separately checks it is still the
     content-minimal common witness member, so [find_pivot] re-picks it);
   - every lost node was uncut with value 0 (a lost region with a cut,
     or any positive value, would have contributed to surviving
     decisions);
   - no surviving uncut node flips to cut once the lost preserved
     weight leaves its subtree: with [lostAcc st] the lost endpoint
     weight inside [st]'s subtree and [delta st] the part of it the
     recorded frontier already deletes, the node stays uncut iff
     [lostAcc - delta <= slack] (slack = cut_cost - nocut_cost at
     solve time). Cut nodes can never flip: their inequality tightens
     in the keeping direction.
   The comparisons are float-exact when view weights are integers (sums
   and differences of integers are exact in double precision); with
   general floats they are conservative up to rounding of the recorded
   sums. Returns the restricted tree, with per-node values and slacks
   discounted by the lost weight so chained splits restrict again. *)
let restrict_forest (tree : forest_tree) ~surviving ~lost_end =
  let nodes : (string, forest_node) Hashtbl.t = Hashtbl.create 64 in
  List.iter (fun (k, n) -> Hashtbl.replace nodes k n) tree.ft_nodes;
  let fail fmt = Format.kasprintf (fun m -> Error m) fmt in
  if not (surviving tree.ft_pivot) then fail "pivot %s lost" tree.ft_pivot
  else begin
    let bad_lost =
      List.find_opt
        (fun (k, n) -> (not (surviving k)) && (n.fn_cut || n.fn_value <> 0.0))
        tree.ft_nodes
    in
    let orphan =
      List.find_opt
        (fun (k, n) ->
          surviving k
          && match n.fn_parent with Some p -> not (surviving p) | None -> false)
        tree.ft_nodes
    in
    match (bad_lost, orphan) with
    | Some (k, _), _ -> fail "lost node %s carried value" k
    | _, Some (k, _) -> fail "surviving node %s lost its parent" k
    | None, None -> (
      (* accumulate lost endpoint weight bottom-up *)
      let acc : (string, float) Hashtbl.t = Hashtbl.create 64 in
      let get tbl k = Option.value ~default:0.0 (Hashtbl.find_opt tbl k) in
      let add tbl k v = Hashtbl.replace tbl k (get tbl k +. v) in
      let unknown =
        List.find_opt (fun (k, _) -> not (Hashtbl.mem nodes k)) lost_end
      in
      match unknown with
      | Some (k, _) -> fail "lost endpoint %s not a tree node" k
      | None ->
        List.iter (fun (k, w) -> add acc k w) lost_end;
        (* deepest first: ft_nodes is recorded in increasing depth *)
        let deepest_first = List.rev tree.ft_nodes in
        List.iter
          (fun (k, n) ->
            match n.fn_parent with
            | Some p -> add acc p (get acc k)
            | None -> ())
          deepest_first;
        (* delta: the lost weight the recorded cut frontier deletes *)
        let delta : (string, float) Hashtbl.t = Hashtbl.create 64 in
        let child_sum : (string, float) Hashtbl.t = Hashtbl.create 64 in
        List.iter
          (fun (k, n) ->
            let d = if n.fn_cut then get acc k else get child_sum k in
            Hashtbl.replace delta k d;
            match n.fn_parent with
            | Some p -> add child_sum p d
            | None -> ())
          deepest_first;
        let flip =
          List.find_opt
            (fun (k, n) ->
              surviving k && (not n.fn_cut)
              && get acc k -. get delta k > n.fn_slack)
            tree.ft_nodes
        in
        (match flip with
        | Some (k, _) -> fail "surviving node %s would flip to cut" k
        | None ->
          let nodes' =
            List.filter_map
              (fun (k, n) ->
                if not (surviving k) then None
                else
                  let d = get delta k in
                  Some
                    ( k,
                      {
                        n with
                        fn_value = n.fn_value -. d;
                        fn_slack =
                          (if n.fn_cut then n.fn_slack
                           else n.fn_slack -. (get acc k -. d));
                      } ))
              tree.ft_nodes
          in
          Ok { tree with ft_nodes = nodes' }))
    end
