module R = Relational
module Bitset = Setcover.Bitset

let src = Logs.Src.create "deleprop.primal_dual" ~doc:"PrimeDualVSE (Algorithm 1)"

module Log = (val Logs.src_log src : Logs.LOG)

type result = {
  deletion : R.Stuple.Set.t;
  outcome : Side_effect.outcome;
  duals : float Vtuple.Map.t;
  dual_value : float;
  forest_case : bool;
}

let eps = 1e-9

(* ---- arena kernel ----

   The solver proper: integer ids, flat arrays for capacities and duals,
   bitsets for the deletable/ignored restrictions. The processing order
   (Algorithm 1's lca order) is precomputed by [Arena.build] — it depends
   only on the provenance, not on the restriction, so the LowDeg τ-sweep
   shares it across all thresholds. *)

let reverse_delete_arena ?budget (a : Arena.t) chosen_in_order =
  (* drop a chosen tuple (scanning in reverse addition order) whenever all
     bad witnesses remain hit without it — lines 7-10 of Algorithm 1 *)
  let nv = Arena.num_vtuples a in
  let count = Array.make nv 0 in
  List.iter
    (fun sid ->
      Array.iter
        (fun vid -> if Bitset.mem a.Arena.bad vid then count.(vid) <- count.(vid) + 1)
        a.Arena.containing.(sid))
    chosen_in_order;
  List.fold_left
    (fun kept sid ->
      Budget.tick_o budget;
      let redundant = ref true in
      Array.iter
        (fun vid ->
          if Bitset.mem a.Arena.bad vid && count.(vid) < 2 then redundant := false)
        a.Arena.containing.(sid);
      if !redundant then begin
        Array.iter
          (fun vid -> if Bitset.mem a.Arena.bad vid then count.(vid) <- count.(vid) - 1)
          a.Arena.containing.(sid);
        kept
      end
      else sid :: kept)
    []
    (List.rev chosen_in_order)

let solve_arena ?(reverse_delete = true) ?budget (a : Arena.t) ~deletable
    ~ignored_preserved =
  let ns = Arena.num_stuples a and nv = Arena.num_vtuples a in
  (* capacity of a source tuple: total weight of its preserved,
     non-ignored view tuples (ascending vid = ascending Vtuple order, so
     the float sums match the reference implementation exactly) *)
  let capacity = Array.make ns 0.0 in
  for sid = 0 to ns - 1 do
    let c = ref 0.0 in
    Array.iter
      (fun vid ->
        if Bitset.mem a.Arena.preserved vid && not (Bitset.mem ignored_preserved vid)
        then c := !c +. a.Arena.weights.(vid))
      a.Arena.containing.(sid);
    capacity.(sid) <- !c
  done;
  let used = Array.make ns 0.0 in
  let headroom sid = capacity.(sid) -. used.(sid) in
  let chosen = ref [] in
  let chosen_mask = Array.make ns false in
  let duals = Array.make nv 0.0 in
  let has_dual = Array.make nv false in
  let infeasible = ref false in
  Array.iter
    (fun vid ->
      if not !infeasible then begin
        Budget.tick_o budget;
        let w = a.Arena.witness.(vid) in
        let any_deletable = ref false and any_chosen = ref false in
        Array.iter
          (fun sid ->
            if Bitset.mem deletable sid then begin
              any_deletable := true;
              if chosen_mask.(sid) then any_chosen := true
            end)
          w;
        if not !any_deletable then infeasible := true
        else if not !any_chosen then begin
          (* raise the dual as much as possible: up to the smallest headroom *)
          let delta = ref infinity in
          Array.iter
            (fun sid ->
              if Bitset.mem deletable sid then
                delta := Float.min !delta (headroom sid))
            w;
          let delta = Float.max 0.0 !delta in
          duals.(vid) <- delta;
          has_dual.(vid) <- true;
          Log.debug (fun m ->
              m "raise dual of %a by %g" Vtuple.pp a.Arena.vtuples.(vid) delta);
          Array.iter
            (fun sid ->
              if Bitset.mem deletable sid then used.(sid) <- used.(sid) +. delta)
            w;
          (* all saturated witness tuples are chosen (line 5) *)
          Array.iter
            (fun sid ->
              if
                Bitset.mem deletable sid
                && headroom sid <= eps
                && not chosen_mask.(sid)
              then begin
                chosen := sid :: !chosen;
                chosen_mask.(sid) <- true
              end)
            w
        end
        else begin
          duals.(vid) <- 0.0;
          has_dual.(vid) <- true
        end
      end)
    a.Arena.bad_order;
  if !infeasible then None
  else begin
    let chosen_in_order = List.rev !chosen in
    let deletion_ids =
      if reverse_delete then reverse_delete_arena ?budget a chosen_in_order
      else chosen_in_order
    in
    let deletion = Arena.to_stuple_set a deletion_ids in
    let outcome = Side_effect.eval a.Arena.prov deletion in
    let duals_map = ref Vtuple.Map.empty in
    let dual_value = ref 0.0 in
    for vid = 0 to nv - 1 do
      if has_dual.(vid) then begin
        duals_map := Vtuple.Map.add a.Arena.vtuples.(vid) duals.(vid) !duals_map;
        dual_value := !dual_value +. duals.(vid)
      end
    done;
    Log.info (fun m ->
        m "picked %d tuples (%d before reverse-delete), cost %g, dual %g, forest=%b"
          (R.Stuple.Set.cardinal deletion)
          (List.length chosen_in_order) outcome.Side_effect.cost !dual_value
          a.Arena.forest_case);
    Some
      {
        deletion;
        outcome;
        duals = !duals_map;
        dual_value = !dual_value;
        forest_case = a.Arena.forest_case;
      }
  end

let solve ?(reverse_delete = true) prov =
  let a = Arena.build prov in
  match
    solve_arena ~reverse_delete a
      ~deletable:(Bitset.full (Arena.num_stuples a))
      ~ignored_preserved:(Bitset.create (Arena.num_vtuples a))
  with
  | Some r -> r
  | None ->
    (* with every tuple deletable, each bad witness is non-empty, so the
       run cannot be infeasible *)
    assert false
