module R = Relational

type result = {
  deletion : R.Stuple.Set.t;
  outcome : Side_effect.outcome;
  claimed_bound : float;
}

(* ‖V‖ and ‖ΔV‖ read off the index, which holds one witness entry per
   view tuple — not [Problem.view_size], which re-evaluates every query
   over the database (the same fix as LowDeg's cutoff) *)
let bound (prov : Provenance.t) =
  let l = float_of_int (Problem.max_arity prov.Provenance.problem) in
  let v = float_of_int (Vtuple.Map.cardinal prov.Provenance.witness) in
  let dv = float_of_int (max 2 (Vtuple.Set.cardinal prov.Provenance.bad)) in
  2.0 *. sqrt (l *. v *. log dv)

let solve ?budget prov =
  Budget.tick_o budget;
  let m = Reduction.to_red_blue prov in
  let tick () = Budget.tick_o budget in
  match Setcover.Red_blue.solve_approx ~tick m.Reduction.instance with
  | None -> None
  | Some sol ->
    let deletion = Reduction.deletion_of_red_blue m sol in
    let outcome = Side_effect.eval prov deletion in
    Some { deletion; outcome; claimed_bound = bound prov }
