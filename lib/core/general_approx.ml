module R = Relational

type result = {
  deletion : R.Stuple.Set.t;
  outcome : Side_effect.outcome;
  claimed_bound : float;
}

(* ‖V‖ and ‖ΔV‖ are the arena's live counts — not
   [Problem.view_size], which re-evaluates every query over the
   database (the same fix as LowDeg's cutoff) *)
let bound (a : Arena.t) =
  let l = float_of_int (Problem.max_arity a.Arena.problem) in
  let v = float_of_int (Arena.live_vtuples a) in
  let dv = float_of_int (max 2 (Setcover.Bitset.cardinal a.Arena.bad)) in
  2.0 *. sqrt (l *. v *. log dv)

let solve_arena ?budget a =
  Budget.tick_o budget;
  let m = Reduction.to_red_blue a in
  let tick () = Budget.tick_o budget in
  match Setcover.Red_blue.solve_approx ~tick m.Reduction.instance with
  | None -> None
  | Some sol ->
    let deletion = Reduction.deletion_of_red_blue m sol in
    let outcome = Side_effect.eval_arena a deletion in
    Some { deletion; outcome; claimed_bound = bound a }

let solve ?budget prov = solve_arena ?budget (Arena.build prov)
