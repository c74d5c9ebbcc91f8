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

(* capacity of a source tuple: total weight of its preserved,
   non-ignored view tuples (ascending vid = ascending Vtuple order, so
   the float sums match the reference implementation exactly) *)
let capacities (a : Arena.t) ~ignored_preserved =
  Array.map
    (fun row ->
      let c = ref 0.0 in
      for k = 0 to Array.length row - 1 do
        let vid = row.(k) in
        if Bitset.mem a.Arena.preserved vid && not (Bitset.mem ignored_preserved vid) then
          c := !c +. a.Arena.weights.(vid)
      done;
      !c)
    a.Arena.containing

(* The loops over a witness are [for] loops: a closure would capture
   the running minimum and box it on every step, and a LowDeg sweep
   runs this once per threshold. *)
let deletion_ids ?(reverse_delete = true) ?budget ?(dual = fun _ _ -> ()) (a : Arena.t)
    ~capacity ~deletable =
  let ns = Arena.num_stuples a in
  let tracing = Logs.Src.level src = Some Logs.Debug in
  let used = Array.make ns 0.0 in
  let chosen = ref [] in
  let chosen_mask = Array.make ns false in
  let infeasible = ref false in
  let order = a.Arena.bad_order in
  let next = ref 0 in
  while (not !infeasible) && !next < Array.length order do
    let vid = order.(!next) in
    incr next;
    Budget.tick_o budget;
    let w = a.Arena.witness.(vid) in
    let any_deletable = ref false and any_chosen = ref false in
    for k = 0 to Array.length w - 1 do
      if Bitset.mem deletable w.(k) then begin
        any_deletable := true;
        if chosen_mask.(w.(k)) then any_chosen := true
      end
    done;
    if not !any_deletable then infeasible := true
    else if not !any_chosen then begin
      (* raise the dual as much as possible: up to the smallest headroom *)
      let delta = ref infinity in
      for k = 0 to Array.length w - 1 do
        let sid = w.(k) in
        if Bitset.mem deletable sid then
          delta := Float.min !delta (capacity.(sid) -. used.(sid))
      done;
      let delta = Float.max 0.0 !delta in
      dual vid delta;
      (* tested first: the message's closure and boxed [delta] would
         otherwise be built for every dual of every LowDeg threshold *)
      if tracing then
        Log.debug (fun m -> m "raise dual of %a by %g" Vtuple.pp a.Arena.vtuples.(vid) delta);
      for k = 0 to Array.length w - 1 do
        let sid = w.(k) in
        if Bitset.mem deletable sid then used.(sid) <- used.(sid) +. delta
      done;
      (* all saturated witness tuples are chosen (line 5) *)
      for k = 0 to Array.length w - 1 do
        let sid = w.(k) in
        if
          Bitset.mem deletable sid
          && capacity.(sid) -. used.(sid) <= eps
          && not chosen_mask.(sid)
        then begin
          chosen := sid :: !chosen;
          chosen_mask.(sid) <- true
        end
      done
    end
    else dual vid 0.0
  done;
  if !infeasible then None
  else begin
    let chosen_in_order = List.rev !chosen in
    Log.debug (fun m -> m "%d tuples saturated" (List.length chosen_in_order));
    Some
      (if reverse_delete then reverse_delete_arena ?budget a chosen_in_order
       else chosen_in_order)
  end

let solve_arena ?reverse_delete ?budget (a : Arena.t) =
  let nv = Arena.num_vtuples a in
  let duals = Array.make nv 0.0 in
  let has_dual = Array.make nv false in
  let dual vid delta =
    duals.(vid) <- delta;
    has_dual.(vid) <- true
  in
  match
    deletion_ids ?reverse_delete ?budget ~dual a
      ~capacity:(capacities a ~ignored_preserved:(Bitset.create nv))
      ~deletable:(Bitset.full (Arena.num_stuples a))
  with
  | None ->
    (* with every tuple deletable, each bad witness is non-empty, so the
       run cannot be infeasible *)
    assert false
  | Some deletion_ids ->
    let deletion = Arena.to_stuple_set a deletion_ids in
    let outcome = Side_effect.eval_arena a deletion in
    let duals_map = ref Vtuple.Map.empty in
    let dual_value = ref 0.0 in
    for vid = 0 to nv - 1 do
      if has_dual.(vid) then begin
        duals_map := Vtuple.Map.add a.Arena.vtuples.(vid) duals.(vid) !duals_map;
        dual_value := !dual_value +. duals.(vid)
      end
    done;
    Log.info (fun m ->
        m "picked %d tuples, cost %g, dual %g, forest=%b"
          (R.Stuple.Set.cardinal deletion) outcome.Side_effect.cost !dual_value
          a.Arena.forest_case);
    {
      deletion;
      outcome;
      duals = !duals_map;
      dual_value = !dual_value;
      forest_case = a.Arena.forest_case;
    }

let solve ?(reverse_delete = true) prov = solve_arena ~reverse_delete (Arena.build prov)
