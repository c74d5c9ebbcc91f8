module R = Relational
module Bitset = Setcover.Bitset
module Uf = Setcover.Unionfind

let src = Logs.Src.create "deleprop.dp_tree" ~doc:"DPTreeVSE (Algorithm 4)"

module Log = (val Logs.src_log src : Logs.LOG)

type objective = Standard | Balanced

type result = {
  deletion : R.Stuple.Set.t;
  outcome : Side_effect.outcome;
  pivots : R.Stuple.t list;
  optimum : float;
  decomp : Decomposition.forest_tree list;
}

type error =
  | Not_a_forest
  | No_pivot

let pp_error ppf = function
  | Not_a_forest -> Format.fprintf ppf "data dual graph is not a forest"
  | No_pivot -> Format.fprintf ppf "a component has no pivot tuple"

(* The rows of [vids] on local ids, the ranks of the sids they hold:
   ranks keep every order by sid, and size the test by the rows, not
   by the arena a fragment lives in. [rows.(k)] is [vids.(k)]'s. On a
   shard, whose rows hold every sid, ranks are sids and the rows serve
   as they are (mapping them anyway makes a shard's test 1.5x slower). *)
let local (a : Arena.t) vids =
  let held = Bitset.create (Arena.num_stuples a) in
  Array.iter (fun v -> Array.iter (Bitset.add held) a.Arena.witness.(v)) vids;
  let sids = Array.of_list (Bitset.elements held) in
  let n = Array.length sids in
  let rec rank s lo hi =
    if hi - lo <= 1 then lo
    else
      let mid = (lo + hi) / 2 in
      if sids.(mid) <= s then rank s mid hi else rank s lo mid
  in
  let row r = if n = Arena.num_stuples a then r else Array.map (fun s -> rank s 0 n) r in
  (sids, Array.map (fun v -> row a.Arena.witness.(v)) vids, Array.map (fun v -> row a.Arena.paths.(v)) vids)

(* The forest test: the distinct edges between consecutive ids of the
   path rows, sorted as (lo, hi) pairs, go through a union-find, and an
   edge inside one class closes a cycle. Consed in descending order,
   every adjacency list ascends. *)
let graph n paths =
  let edges =
    Array.concat
      (List.map
         (fun p ->
           Array.init (Array.length p - 1) (fun i -> (min p.(i) p.(i + 1) * n) + max p.(i) p.(i + 1)))
         (Array.to_list paths))
  in
  Array.sort Int.compare edges;
  let uf = Uf.create n and adj = Array.make n [] in
  let m = Array.length edges in
  let rec go i =
    if i < 0 then Some (uf, adj)
    else if i + 1 < m && edges.(i + 1) = edges.(i) then go (i - 1)
    else
      let lo = edges.(i) / n and hi = edges.(i) mod n in
      if Uf.find uf lo = Uf.find uf hi then None
      else begin
        Uf.union uf lo hi;
        adj.(lo) <- hi :: adj.(lo);
        adj.(hi) <- lo :: adj.(hi);
        go (i - 1)
      end
  in
  go (m - 1)

(* BFS from [root], neighbours ascending: its component's visit order,
   with [parent] (-1 at the root) and [depth] filled in *)
let root_at adj ~parent ~depth root =
  let order = ref [ root ] and queue = Queue.create () in
  parent.(root) <- -1;
  depth.(root) <- 0;
  Queue.add root queue;
  while not (Queue.is_empty queue) do
    let s = Queue.pop queue in
    List.iter
      (fun t ->
        if t <> parent.(s) then begin
          parent.(t) <- s;
          depth.(t) <- depth.(s) + 1;
          order := t :: !order;
          Queue.add t queue
        end)
      adj.(s)
  done;
  Array.of_list (List.rev !order)

(* a witness row's endpoint: its deepest member, ties to the least id *)
let endpoint depth w =
  Array.fold_left (fun best s -> if depth.(s) > depth.(best) then s else best) w.(0) w

(* The data dual graph of [vids], on local ids, rooted at one pivot per
   component: each component is its pivot, its BFS order and its row
   indices, descending, and the components come by descending least
   id. *)
type rooted = {
  sids : int array;  (* local id -> sid *)
  witness : int array array;
  adj : int list array;
  parent : int array;
  depth : int array;
  comps : (int * int array * int list) list;
}

(* The structural half of Algorithm 4 over the view tuples [vids]. Each
   component tries as its pivot the ids all its witness rows hold,
   ascending; the last one rooted is the pivot, so [parent] and [depth]
   keep its rooting. *)
let structure (a : Arena.t) vids =
  let sids, witness, paths = local a vids in
  let n = Array.length sids in
  match graph n paths with
  | None -> Error Not_a_forest
  | Some (uf, adj) ->
    let members = Array.make n [] and count = Array.make n 0 in
    Array.iteri
      (fun k w ->
        let r = Uf.find uf paths.(k).(0) in
        members.(r) <- k :: members.(r);
        Array.iter (fun s -> count.(s) <- count.(s) + 1) w)
      witness;
    let parent = Array.make n (-1) and depth = Array.make n 0 and mark = Array.make n (-1) in
    (* is every witness the path from the root to its endpoint? *)
    let root_path k =
      let w = witness.(k) in
      Array.iter (fun s -> mark.(s) <- k) w;
      let rec up s n = if s < 0 then n = Array.length w else mark.(s) = k && up parent.(s) (n + 1) in
      up (endpoint depth w) 0
    in
    let rooted ks c =
      let order = root_at adj ~parent ~depth c in
      if List.for_all root_path ks then Some (c, order, ks) else None
    in
    Array.fold_left
      (fun acc ks ->
        match (acc, ks) with
        | Error _, _ | _, [] -> acc
        | Ok comps, k :: _ -> (
          let m = List.length ks in
          match
            Seq.find_map (rooted ks) (Seq.filter (fun s -> count.(s) = m) (Array.to_seq witness.(k)))
          with
          | Some comp -> Ok (comp :: comps)
          | None -> Error No_pivot))
      (Ok []) members
    |> Result.map (fun comps -> { sids; witness; adj; parent; depth; comps })

let live_vids (a : Arena.t) = Array.of_list (Bitset.elements (Bitset.union a.Arena.bad a.Arena.preserved))

let pivots a vids = Result.map (fun g -> List.map (fun (c, _, _) -> g.sids.(c)) g.comps) (structure a vids)

let applicable a = Result.is_ok (structure a (live_vids a))

(* The DP over each rooted component, on arrays the (disjoint)
   components share. Components, children (descending id) and endpoint
   weights (vids descending) fold in the reference kernel's orders
   (test/reference/dp_tree_reference.ml), so every float is
   bit-identical to it. *)
let solve_arena ?(objective = Standard) ?budget (a : Arena.t) =
  let vids = live_vids a in
  match structure a vids with
  | Error e -> Error e
  | Ok g ->
    let n = Array.length g.sids in
    let pres_end = Array.make n 0.0 and bad_end = Array.make n 0.0 and has_bad = Array.make n false in
    let subtree_pres = Array.make n 0.0 and value = Array.make n 0.0 in
    let cut = Array.make n false and slack = Array.make n 0.0 and keys = Array.make n "" in
    let stuple s = a.Arena.stuples.(g.sids.(s)) in
    let children_sum x s =
      List.fold_right (fun c acc -> if c = g.parent.(s) then acc else acc +. x.(c)) g.adj.(s) 0.0
    in
    let solve_component (deletion, pivots, optimum, trees) (pivot, order, ks) =
      Log.debug (fun m ->
          m "component pivot %a, %d view tuples" R.Stuple.pp (stuple pivot) (List.length ks));
      List.iter
        (fun k ->
          Budget.tick_o budget;
          let e = endpoint g.depth g.witness.(k) and v = vids.(k) in
          if Bitset.mem a.Arena.bad v then begin
            bad_end.(e) <- a.Arena.weights.(v) +. bad_end.(e);
            has_bad.(e) <- true
          end
          else pres_end.(e) <- a.Arena.weights.(v) +. pres_end.(e))
        ks;
      (* bottom-up DP *)
      for i = Array.length order - 1 downto 0 do
        Budget.tick_o budget;
        let s = order.(i) in
        let sp = pres_end.(s) +. children_sum subtree_pres s in
        subtree_pres.(s) <- sp;
        let children_value = children_sum value s in
        let nocut_cost =
          match objective with
          | Standard -> if has_bad.(s) then infinity else children_value
          | Balanced -> bad_end.(s) +. children_value
        in
        cut.(s) <- sp < nocut_cost;
        value.(s) <- (if cut.(s) then sp else nocut_cost);
        (* how much preserved weight the subtree can lose before cutting
           becomes strictly cheaper *)
        if not cut.(s) then slack.(s) <- sp -. nocut_cost
      done;
      (* reconstruct: descend while not cut *)
      let rec walk deletion s =
        if cut.(s) then R.Stuple.Set.add (stuple s) deletion
        else List.fold_left (fun d c -> if c = g.parent.(s) then d else walk d c) deletion g.adj.(s)
      in
      (* record the rooted tree: parent/depth plus the DP's per-node
         decision state, keyed by tuple content *)
      Array.iter (fun s -> keys.(s) <- Decomposition.key (stuple s)) order;
      let node s =
        ( keys.(s),
          { Decomposition.fn_parent = (if g.parent.(s) < 0 then None else Some keys.(g.parent.(s)));
            fn_depth = g.depth.(s); fn_cut = cut.(s); fn_value = value.(s); fn_slack = slack.(s) } )
      in
      ( walk deletion pivot,
        stuple pivot :: pivots,
        optimum +. value.(pivot),
        { Decomposition.ft_pivot = keys.(pivot); ft_nodes = List.map node (Array.to_list order) }
        :: trees )
    in
    let deletion, pivots, optimum, trees =
      List.fold_left solve_component (R.Stuple.Set.empty, [], 0.0, []) g.comps
    in
    let outcome = Side_effect.eval_arena a deletion in
    Ok { deletion; outcome; pivots = List.rev pivots; optimum; decomp = List.rev trees }

let solve ?objective ?budget prov = solve_arena ?objective ?budget (Arena.build prov)
