(* Shared helpers for the test suites. *)

module R = Relational
module D = Deleprop

let rng seed = Random.State.make [| seed |]

let check_float = Alcotest.(check (float 1e-9))

let feq a b = Float.abs (a -. b) < 1e-9

(* Alcotest testables *)
let value = Alcotest.testable R.Value.pp R.Value.equal
let tuple = Alcotest.testable R.Tuple.pp R.Tuple.equal
let stuple = Alcotest.testable R.Stuple.pp R.Stuple.equal
let vtuple = Alcotest.testable D.Vtuple.pp D.Vtuple.equal

let stuple_set =
  Alcotest.testable
    (fun ppf s ->
      Format.fprintf ppf "{%a}"
        (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ") R.Stuple.pp)
        (R.Stuple.Set.elements s))
    R.Stuple.Set.equal

let tuple_set =
  Alcotest.testable
    (fun ppf s ->
      Format.fprintf ppf "{%a}"
        (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ") R.Tuple.pp)
        (R.Tuple.Set.elements s))
    R.Tuple.Set.equal

let vtuple_set =
  Alcotest.testable
    (fun ppf s ->
      Format.fprintf ppf "{%a}"
        (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ") D.Vtuple.pp)
        (D.Vtuple.Set.elements s))
    D.Vtuple.Set.equal

let st rel vs = R.Stuple.make rel (R.Tuple.strs vs)

(* every active component of a standalone arena, compiled: the
   proto-shards [Planner.solve] enumerates, each materialized *)
let shatter (a : D.Arena.t) =
  Array.map (D.Arena.materialize a)
    (D.Component_index.active (D.Component_index.build a) a)

(* Component ids are stable within a session, not canonical: the
   canonical label ([Arena.partition]) of component [c] of [cindex] is
   the label of its least live sid. Tests compare components through it. *)
let canonical cindex =
  let p = D.Component_index.partition cindex in
  fun c -> p.D.Arena.comp_of_sid.((D.Component_index.sids_of cindex c).(0))

(* [plan] with each shard decision's component through [canonical] of
   [eng]'s live index — taken right after the request that made [plan],
   before a later commit re-labels *)
let canonical_plan eng (plan : Engine.plan) =
  let c = canonical (Engine.component_index eng) in
  {
    plan with
    Engine.shards =
      List.map
        (fun (d : D.Planner.shard_decision) ->
          { d with D.Planner.component = c d.D.Planner.component })
        plan.Engine.shards;
  }

(* QCheck -> Alcotest adaptor *)
let qcheck ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)
