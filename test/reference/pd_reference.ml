(* The seed primal-dual implementation over persistent sets and
   string-keyed hashtables, moved verbatim from lib/core/primal_dual.ml:
   the arena kernel must match it result for result. *)

module R = Relational
open Deleprop

let eps = 1e-9

(* Processing order of the bad view tuples: by decreasing depth of the
   shallowest witness tuple ("lca") when the query set admits a relation
   forest, else by decreasing witness size. Deterministic tie-break. *)
let processing_order (prov : Provenance.t) =
  let bad = Vtuple.Set.elements prov.Provenance.bad in
  match Hypergraph.Rel_tree.of_queries prov.Provenance.problem.Problem.queries with
  | Some tree ->
    let lca_depth vt =
      R.Stuple.Set.fold
        (fun st acc -> min acc (Hypergraph.Rel_tree.depth tree st.R.Stuple.rel))
        (Provenance.witness_of prov vt)
        max_int
    in
    let keyed = List.map (fun vt -> (lca_depth vt, vt)) bad in
    ( true,
      List.sort
        (fun (da, a) (db, b) ->
          if da <> db then Int.compare db da else Vtuple.compare a b)
        keyed
      |> List.map snd )
  | None ->
    let size vt = R.Stuple.Set.cardinal (Provenance.witness_of prov vt) in
    let keyed = List.map (fun vt -> (size vt, vt)) bad in
    ( false,
      List.sort
        (fun (sa, a) (sb, b) ->
          if sa <> sb then Int.compare sb sa else Vtuple.compare a b)
        keyed
      |> List.map snd )

let reverse_delete_reference (prov : Provenance.t) chosen_in_order =
  (* drop a chosen tuple (scanning in reverse addition order) whenever all
     bad witnesses remain hit without it — lines 7-10 of Algorithm 1 *)
  let hits st =
    Vtuple.Set.inter (Provenance.vtuples_containing prov st) prov.Provenance.bad
  in
  let count = Hashtbl.create 64 in
  let bump vt d =
    let k = Vtuple.to_string vt in
    Hashtbl.replace count k (d + Option.value ~default:0 (Hashtbl.find_opt count k))
  in
  let get vt = Option.value ~default:0 (Hashtbl.find_opt count (Vtuple.to_string vt)) in
  List.iter (fun st -> Vtuple.Set.iter (fun vt -> bump vt 1) (hits st)) chosen_in_order;
  List.fold_left
    (fun kept st ->
      let h = hits st in
      if Vtuple.Set.for_all (fun vt -> get vt >= 2) h then begin
        Vtuple.Set.iter (fun vt -> bump vt (-1)) h;
        kept
      end
      else R.Stuple.Set.add st kept)
    R.Stuple.Set.empty
    (List.rev chosen_in_order)

let solve_general_reference (prov : Provenance.t) ~reverse_delete:do_rd ~deletable
    ~ignored_preserved =
  let forest_case, order = processing_order prov in
  let weights = prov.Provenance.problem.Problem.weights in
  let capacity st =
    Vtuple.Set.fold
      (fun vt acc ->
        if
          Vtuple.Set.mem vt prov.Provenance.preserved
          && not (Vtuple.Set.mem vt ignored_preserved)
        then acc +. Weights.get weights vt
        else acc)
      (Provenance.vtuples_containing prov st)
      0.0
  in
  let used : (string, float) Hashtbl.t = Hashtbl.create 64 in
  let headroom st =
    capacity st -. Option.value ~default:0.0 (Hashtbl.find_opt used (R.Stuple.to_string st))
  in
  let draw st d =
    let k = R.Stuple.to_string st in
    Hashtbl.replace used k (d +. Option.value ~default:0.0 (Hashtbl.find_opt used k))
  in
  let chosen = ref [] in
  let chosen_set = ref R.Stuple.Set.empty in
  let duals = ref Vtuple.Map.empty in
  let infeasible = ref false in
  List.iter
    (fun vt ->
      if not !infeasible then begin
        let witness =
          R.Stuple.Set.filter (fun st -> R.Stuple.Set.mem st deletable)
            (Provenance.witness_of prov vt)
        in
        if R.Stuple.Set.is_empty witness then infeasible := true
        else if R.Stuple.Set.is_empty (R.Stuple.Set.inter witness !chosen_set) then begin
          (* raise the dual as much as possible: up to the smallest headroom *)
          let delta =
            R.Stuple.Set.fold (fun st acc -> min acc (headroom st)) witness infinity
          in
          let delta = max 0.0 delta in
          duals := Vtuple.Map.add vt delta !duals;
          R.Stuple.Set.iter (fun st -> draw st delta) witness;
          (* all saturated witness tuples are chosen (line 5) *)
          R.Stuple.Set.iter
            (fun st ->
              if headroom st <= eps && not (R.Stuple.Set.mem st !chosen_set) then begin
                chosen := st :: !chosen;
                chosen_set := R.Stuple.Set.add st !chosen_set
              end)
            witness
        end
        else duals := Vtuple.Map.add vt 0.0 !duals
      end)
    order;
  if !infeasible then None
  else begin
    let chosen_in_order = List.rev !chosen in
    let deletion =
      if do_rd then reverse_delete_reference prov chosen_in_order
      else R.Stuple.Set.of_list chosen_in_order
    in
    let outcome = Side_effect.eval prov deletion in
    let dual_value = Vtuple.Map.fold (fun _ v acc -> acc +. v) !duals 0.0 in
    Some
      {
        Primal_dual.deletion;
        outcome;
        duals = !duals;
        dual_value;
        forest_case;
      }
  end

let all_tuples (prov : Provenance.t) =
  R.Instance.fold R.Stuple.Set.add prov.Provenance.problem.Problem.db R.Stuple.Set.empty

let solve_reference ?(reverse_delete = true) prov =
  match
    solve_general_reference prov ~reverse_delete ~deletable:(all_tuples prov)
      ~ignored_preserved:Vtuple.Set.empty
  with
  | Some r -> r
  | None -> assert false
