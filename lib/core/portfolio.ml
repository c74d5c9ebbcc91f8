let src = Logs.Src.create "deleprop.portfolio" ~doc:"solver portfolio"

module Log = (val Logs.src_log src : Logs.LOG)

type failure_reason = Solver.failure_reason =
  | Timed_out
  | Crashed of string

type failure = Solver.failure = {
  algorithm : string;
  elapsed_ms : float;
  reason : failure_reason;
}

type report = {
  solutions : Solution.t list;
  failures : failure list;
  degraded : bool;
}

let pp_failure = Solver.pp_failure

(* Policy over the registry: everything runs except brute, which
   participates only on small candidate sets. Applicability is NOT
   pre-filtered — a structurally inapplicable solver (dp-tree off a
   forest) still crosses its failpoint and classifies as [Inapplicable],
   so fault injection observes every registered algorithm. *)
let solvers_for ?(exact_threshold = 16) (a : Arena.t) =
  let candidates = Array.length (Arena.candidate_ids a) in
  Solvers.registered ()
  |> List.filter (fun (module S : Solver.S) ->
         (not (String.equal S.name "brute")) || candidates <= exact_threshold)

(* Bottom rung of the degradation ladder: the greedy pass terminates in
   polynomial time with a feasible answer whenever one exists, so a
   round whose every budgeted solver timed out or crashed still
   answers. Runs unbudgeted and outside the failpoint registry — it is
   the last resort, not an injection target. *)
let degraded_solution (a : Arena.t) =
  let t0 = Unix.gettimeofday () in
  let r = Single_query.solve_greedy_multi (Arena.provenance a) in
  let sol =
    { Solution.algorithm = "greedy"; deleted = r.Single_query.deletion;
      outcome = r.Single_query.outcome; certificate = Solution.Heuristic;
      elapsed_ms = (Unix.gettimeofday () -. t0) *. 1000.0;
      decomposition = [] }
  in
  if Solution.feasible sol then Some sol else None

let solutions_report ?exact_threshold ?only ?domains ?pool ?budget_ms
    (a : Arena.t) =
  (match only with
  | Some names -> Solvers.check_names ~caller:"Portfolio.solutions_report" names
  | None -> ());
  let budget = Option.map Budget.of_ms budget_ms in
  let solvers = solvers_for ?exact_threshold a in
  let solvers =
    match only with
    | None -> solvers
    | Some names ->
      List.filter (fun (module S : Solver.S) -> List.mem S.name names) solvers
  in
  (* [Solver.run] swallows its own exceptions; [map_result] is the belt
     under those braces — a task dying outside the wrapper still
     surfaces as a classified failure, never as a dead pool *)
  let attempts =
    Par.map_result ?domains ?pool (fun s -> Solver.run ?budget s a) solvers
    |> List.map2
         (fun (module S : Solver.S) -> function
           | Ok att -> att
           | Error e ->
             Solver.Failed
               { algorithm = S.name; elapsed_ms = 0.0;
                 reason = Crashed (Printexc.to_string e) })
         solvers
  in
  let failures =
    List.filter_map (function Solver.Failed f -> Some f | _ -> None) attempts
  in
  List.iter (fun f -> Log.warn (fun m -> m "%a" pp_failure f)) failures;
  let ranked =
    List.filter_map (function Solver.Solved s -> Some s | _ -> None) attempts
    |> Solution.rank
  in
  match ranked with
  | _ :: _ -> { solutions = ranked; failures; degraded = false }
  | [] -> (
    match degraded_solution a with
    | Some s ->
      Log.warn (fun m ->
          m "no solver produced a feasible answer; degraded to unbudgeted greedy");
      { solutions = [ s ]; failures; degraded = true }
    | None -> { solutions = []; failures; degraded = false })

let solutions ?exact_threshold ?only ?domains ?pool ?budget_ms (a : Arena.t) =
  (solutions_report ?exact_threshold ?only ?domains ?pool ?budget_ms a).solutions

