(* The compiled join (lib/cq/eval.ml) against the backtracking join it
   replaced (test/reference/eval_reference.ml). [matches] must return
   the reference's list element for element (the same answers and
   witnesses in the same order) under both [~planned] settings, and
   [evaluate], [provenance] and [Cq.Maintain.gained_answers] must equal
   the reference's. The instances are the fuzz suite's random schemas
   and queries (self-joins, constants, projections, a variable repeated
   inside one atom) and the workload families. Then the plan's
   rejection of malformed queries, one case each. *)

open Util
module R = Relational
module D = Deleprop
module Ref = Reference.Eval_reference

let witness_equal (a : Cq.Eval.witness) (b : Cq.Eval.witness) =
  Array.length a = Array.length b && Array.for_all2 R.Stuple.equal a b

let pp_matches =
  Format.pp_print_list (fun ppf (t, w) ->
      Format.fprintf ppf "@ %a <- [%a]" R.Tuple.pp t
        (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ") R.Stuple.pp)
        (Array.to_list w))

let witness_lists_equal = R.Tuple.Map.equal (List.equal witness_equal)

(* every entry point on [q] over [db], under both atom orders *)
let check_query tag db (q : Cq.Query.t) =
  List.iter
    (fun planned ->
      let tag = Printf.sprintf "%s, %s, planned %b" tag (Cq.Query.to_string q) planned in
      let got = Cq.Eval.matches ~planned db q and want = Ref.matches ~planned db q in
      if not (List.equal (fun (t, w) (t', w') -> R.Tuple.equal t t' && witness_equal w w') got want)
      then Alcotest.failf "%s: matches@[<v>%a@]@ expected@[<v>%a@]" tag pp_matches got pp_matches want;
      Alcotest.check tuple_set (tag ^ ": evaluate") (Ref.evaluate ~planned db q)
        (Cq.Eval.evaluate ~planned db q);
      Alcotest.(check bool) (tag ^ ": provenance") true
        (witness_lists_equal (Ref.provenance ~planned db q) (Cq.Eval.provenance ~planned db q)))
    [ true; false ]

(* the answers inserting [st] back creates, for one tuple [st] of [db] *)
let check_gained tag db (q : Cq.Query.t) (st : R.Stuple.t) =
  let db = R.Instance.remove db st in
  Alcotest.(check bool)
    (Printf.sprintf "%s, %s: gained_answers on inserting %s" tag (Cq.Query.to_string q)
       (R.Stuple.to_string st))
    true
    (witness_lists_equal (Ref.gained_answers db q st) (Cq.Maintain.gained_answers db q st))

let check_instance tag rng db queries =
  let stuples = Array.of_list (R.Instance.stuples db) in
  List.iter
    (fun q ->
      check_query tag db q;
      if Array.length stuples > 0 then
        for _ = 1 to 2 do
          check_gained tag db q stuples.(Random.State.int rng (Array.length stuples))
        done)
    queries

let seeds = QCheck2.Gen.int_range 0 100_000

let prop_fuzz =
  qcheck ~count:400 "compiled join = reference on random CQs" seeds (fun seed ->
      let rng = rng seed in
      let schema = Test_fuzz.random_schema rng in
      let db = Test_fuzz.random_db rng schema in
      let queries =
        List.filter_map
          (fun i -> Test_fuzz.random_query rng schema (Printf.sprintf "Q%d" i))
          (List.init 3 Fun.id)
      in
      check_instance (Printf.sprintf "fuzz seed %d" seed) rng db queries;
      true)

let prop_families =
  qcheck ~count:100 "compiled join = reference on the workload families" seeds (fun seed ->
      let p = Test_bulk_build.family_problem seed in
      check_instance (Printf.sprintf "family seed %d" seed) (rng seed) p.D.Problem.db
        p.D.Problem.queries;
      true)

(* ---- malformed queries ---- *)

let two_tuples () =
  let schema = R.Schema.Db.of_list [ R.Schema.make ~name:"T" ~attrs:[ "a"; "b" ] ~key:[ 0 ] ] in
  R.Instance.of_alist schema [ ("T", [ R.Tuple.ints [ 1; 2 ]; R.Tuple.ints [ 3; 4 ] ]) ]

(* [f] raises [Invalid_argument] under both atom orders, naming each of
   [names] *)
let rejects what names f =
  List.iter
    (fun planned ->
      let what = Printf.sprintf "%s (planned %b)" what planned in
      match f planned with
      | _ -> Alcotest.failf "%s: no error" what
      | exception Invalid_argument msg ->
        List.iter
          (fun name ->
            if not (Astring.String.is_infix ~affix:name msg) then
              Alcotest.failf "%s: %S does not name %s" what msg name)
          names)
    [ true; false ]

let test_arity () =
  (* the atom reads one column of a binary relation: each tuple would
     match on its first column alone *)
  let q = Cq.Parser.query_of_string "Q(X) :- T(X)" in
  rejects "arity" [ "query Q"; "T(X)" ] (fun planned ->
      Cq.Eval.matches ~planned (two_tuples ()) q)

let test_empty_body () =
  let q = Cq.Query.make ~name:"Q" ~head:[ Cq.Term.int 1 ] ~body:[] in
  rejects "empty body" [ "query Q"; "empty body" ] (fun planned ->
      Cq.Eval.matches ~planned (two_tuples ()) q)

let test_unknown_relation () =
  (* T(X, 7) matches nothing, so a left-to-right join never reaches U *)
  let q = Cq.Parser.query_of_string "Q(X) :- T(X, 7), U(X)" in
  rejects "unknown relation" [ "query Q"; "U(X)" ] (fun planned ->
      Cq.Eval.matches ~planned (two_tuples ()) q)

let test_unsafe_head () =
  (* Z is bound by no atom: no error while no derivation exists *)
  let q = Cq.Parser.query_of_string "Q(X, Z) :- T(X, Y)" in
  let empty = R.Instance.empty (R.Instance.schema (two_tuples ())) in
  Alcotest.(check int) "no derivation, no error" 0 (List.length (Cq.Eval.matches empty q));
  match Cq.Eval.matches (two_tuples ()) q with
  | _ -> Alcotest.fail "an unbound head variable built an answer"
  | exception Invalid_argument msg ->
    Alcotest.(check string) "names the query" "Eval: unbound head term in Q" msg

let suite =
  [
    prop_fuzz;
    prop_families;
    Alcotest.test_case "plan rejects an atom of the wrong arity" `Quick test_arity;
    Alcotest.test_case "plan rejects an empty body" `Quick test_empty_body;
    Alcotest.test_case "plan rejects an unknown relation" `Quick test_unknown_relation;
    Alcotest.test_case "unsafe head variable raises on a derivation" `Quick test_unsafe_head;
  ]
