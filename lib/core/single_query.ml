module R = Relational
module Bitset = Setcover.Bitset

type result = {
  deletion : R.Stuple.Set.t;
  outcome : Side_effect.outcome;
}

type error =
  | Not_single_query of int
  | Not_single_deletion of int

let pp_error ppf = function
  | Not_single_query n -> Format.fprintf ppf "instance has %d queries, not 1" n
  | Not_single_deletion n -> Format.fprintf ppf "ΔV has %d tuples, not 1" n

let result_of a deletion = { deletion; outcome = Side_effect.eval_arena a deletion }

(* The cheapest single witness tuple of bad vid [vid]: the member whose
   live preserved view tuples not yet [killed] weigh least, ties to the
   least sid. Rows ascend, so the sums fold in Vtuple order. *)
let cheapest_killer (a : Arena.t) killed vid =
  Array.fold_left
    (fun best sid ->
      let extra =
        Array.fold_left
          (fun acc v ->
            if Bitset.mem a.Arena.preserved v && not (Bitset.mem killed v) then
              acc +. a.Arena.weights.(v)
            else acc)
          0.0 a.Arena.containing.(sid)
      in
      match best with Some (_, w) when w <= extra -> best | _ -> Some (sid, extra))
    None a.Arena.witness.(vid)

let solve_arena (a : Arena.t) =
  let nq = List.length a.Arena.problem.Problem.queries in
  if nq <> 1 then Error (Not_single_query nq)
  else
    match Bitset.cardinal a.Arena.bad with
    | 1 ->
      let vid = List.hd (Bitset.elements a.Arena.bad) in
      let sid, _ = Option.get (cheapest_killer a (Bitset.create (Arena.num_vtuples a)) vid) in
      Ok (result_of a (R.Stuple.Set.singleton a.Arena.stuples.(sid)))
    | nd -> Error (Not_single_deletion nd)

let solve prov = solve_arena (Arena.build prov)

(* Each step kills the least bad view tuple still alive. The killed set
   grows by the chosen tuple's row alone, and a tuple killed once stays
   killed, so one ascending walk over ΔV finds every step's least
   survivor: linear in the deletion, not quadratic. *)
let solve_greedy_multi (a : Arena.t) =
  let killed = Bitset.create (Arena.num_vtuples a) in
  result_of a
    (Bitset.fold
       (fun vid deletion ->
         if Bitset.mem killed vid then deletion
         else
           let sid, _ = Option.get (cheapest_killer a killed vid) in
           Array.iter (Bitset.add killed) a.Arena.containing.(sid);
           R.Stuple.Set.add a.Arena.stuples.(sid) deletion)
       a.Arena.bad R.Stuple.Set.empty)
