module type S = sig
  val name : string
  val applicable : Arena.t -> bool
  val solve : ?budget:Budget.t -> Arena.t -> Solution.t option
end

type failure_reason =
  | Timed_out
  | Crashed of string

type failure = {
  algorithm : string;
  elapsed_ms : float;
  reason : failure_reason;
}

type attempt =
  | Solved of Solution.t
  | Inapplicable
  | Failed of failure

let pp_failure ppf f =
  match f.reason with
  | Timed_out -> Format.fprintf ppf "%s: timed out after %.1fms" f.algorithm f.elapsed_ms
  | Crashed msg -> Format.fprintf ppf "%s: crashed (%s)" f.algorithm msg

let run ?budget (module M : S) a =
  let t0 = Unix.gettimeofday () in
  let elapsed () = (Unix.gettimeofday () -. t0) *. 1000.0 in
  match
    Failpoint.hit ("solver." ^ M.name);
    M.solve ?budget a
  with
  | None -> Inapplicable
  | Some s -> Solved { s with Solution.elapsed_ms = elapsed () }
  | exception Budget.Expired ->
    Failed { algorithm = M.name; elapsed_ms = elapsed (); reason = Timed_out }
  | exception e ->
    Failed
      { algorithm = M.name; elapsed_ms = elapsed ();
        reason = Crashed (Printexc.to_string e) }

(* insertion-ordered registry; replace-in-place on name collision *)
let registry : (module S) list ref = ref []

let name_of (module M : S) = M.name

let register m =
  let n = name_of m in
  (* [run] executes the "solver.<name>" failpoint, so every registered
     solver's site is a legal DELEPROP_FAILPOINTS name *)
  Failpoint.register ("solver." ^ n);
  if List.exists (fun m' -> String.equal (name_of m') n) !registry then
    registry := List.map (fun m' -> if String.equal (name_of m') n then m else m') !registry
  else registry := !registry @ [ m ]

let find n = List.find_opt (fun m -> String.equal (name_of m) n) !registry
let all () = !registry
let names () = List.map name_of !registry
