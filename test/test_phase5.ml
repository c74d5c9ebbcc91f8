(* Tests for phase-5 substrates: secondary indexes, why/where provenance,
   causality/responsibility, UCQ views. *)

open Util
module R = Relational
module D = Deleprop

let parse = Cq.Parser.query_of_string

(* ---- secondary indexes ---- *)

let idx_schema = R.Schema.make ~name:"T" ~attrs:[ "k"; "v"; "w" ] ~key:[ 0 ]

let idx_rel () =
  R.Relation.of_tuples idx_schema
    [ R.Tuple.ints [ 1; 10; 7 ]; R.Tuple.ints [ 2; 10; 8 ]; R.Tuple.ints [ 3; 20; 7 ] ]

let test_column_set () =
  let r = idx_rel () in
  Alcotest.(check int) "two tuples with v=10" 2
    (R.Tuple.Set.cardinal (R.Relation.column_set r 1 (R.Value.int 10)));
  Alcotest.(check int) "none with v=99" 0
    (R.Tuple.Set.cardinal (R.Relation.column_set r 1 (R.Value.int 99)));
  Alcotest.(check bool) "out of range" true
    (try ignore (R.Relation.column_set r 9 (R.Value.int 1)); false
     with Invalid_argument _ -> true)

let test_index_maintained_under_remove () =
  let r = R.Relation.remove (idx_rel ()) (R.Tuple.ints [ 1; 10; 7 ]) in
  Alcotest.(check int) "one tuple with v=10 left" 1
    (R.Tuple.Set.cardinal (R.Relation.column_set r 1 (R.Value.int 10)));
  Alcotest.(check int) "distinct v" 2 (R.Relation.distinct_in_column r 1);
  Alcotest.(check int) "distinct w" 2 (R.Relation.distinct_in_column r 2)

let prop_index_agrees_with_scan =
  qcheck ~count:100 "secondary index = scan" QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let rng = rng seed in
      let r =
        List.fold_left
          (fun r k ->
            try
              R.Relation.add r
                (R.Tuple.ints [ k; Random.State.int rng 4; Random.State.int rng 4 ])
            with R.Relation.Key_violation _ -> r)
          (R.Relation.empty idx_schema)
          (List.init 12 Fun.id)
      in
      List.for_all
        (fun col ->
          List.for_all
            (fun v ->
              let via_index = R.Relation.column_set r col (R.Value.int v) in
              let via_scan =
                R.Relation.to_set r
                |> R.Tuple.Set.filter (fun t ->
                       R.Value.equal (R.Tuple.get t col) (R.Value.int v))
              in
              R.Tuple.Set.equal via_index via_scan)
            (List.init 5 Fun.id))
        [ 0; 1; 2 ])

(* ---- lineage (why / where provenance) ---- *)

let aj_db () = Workload.Author_journal.db ()

let test_why_provenance () =
  let db = aj_db () in
  let q3 = Workload.Author_journal.q3 in
  let ws = Cq.Lineage.why db q3 (R.Tuple.strs [ "John"; "XML" ]) in
  Alcotest.(check int) "two derivations (TKDE, TODS)" 2 (List.length ws);
  let q4 = Workload.Author_journal.q4 in
  let ws4 = Cq.Lineage.why db q4 (R.Tuple.strs [ "John"; "TKDE"; "XML" ]) in
  Alcotest.(check int) "unique witness" 1 (List.length ws4);
  Alcotest.(check int) "non-answer: empty" 0
    (List.length (Cq.Lineage.why db q4 (R.Tuple.strs [ "Nobody"; "X"; "Y" ])))

let test_minimal_why_self_join () =
  (* with a self-join, one derivation can strictly contain another *)
  let schema = R.Schema.Db.of_list [ R.Schema.make ~name:"E" ~attrs:[ "a"; "b" ] ~key:[ 0; 1 ] ] in
  let db =
    R.Instance.of_alist schema
      [ ("E", [ R.Tuple.ints [ 1; 1 ]; R.Tuple.ints [ 1; 2 ] ]) ]
  in
  let q = parse "Q(X) :- E(X, Y), E(Y, X)" in
  ignore (Cq.Eval.evaluate db q);
  (* answer 1 via (1,1)+(1,1): witness {E(1,1)} — minimal *)
  let minimal = Cq.Lineage.minimal_why db q (R.Tuple.ints [ 1 ]) in
  Alcotest.(check int) "one minimal witness" 1 (List.length minimal);
  Alcotest.(check int) "of size one" 1 (R.Stuple.Set.cardinal (List.hd minimal))

let test_where_provenance () =
  let db = aj_db () in
  let q4 = Workload.Author_journal.q4 in
  let cells = Cq.Lineage.where_ db q4 (R.Tuple.strs [ "John"; "TKDE"; "XML" ]) in
  (* position 0 (X) copies from T1's first column *)
  (match cells.(0) with
  | [ c ] ->
    Alcotest.(check string) "X from T1" "T1" c.Cq.Lineage.rel;
    Alcotest.(check int) "column 0" 0 c.Cq.Lineage.column
  | l -> Alcotest.failf "expected one cell for X, got %d" (List.length l));
  (* position 1 (Y) occurs in BOTH T1 and T2 *)
  Alcotest.(check int) "Y from two cells" 2 (List.length cells.(1));
  (* a constant head position has no where-provenance *)
  let qc =
    Cq.Query.make ~name:"Qc"
      ~head:[ Cq.Term.var "X"; Cq.Term.str "lit" ]
      ~body:[ Cq.Atom.make "T1" [ Cq.Term.var "X"; Cq.Term.var "Y" ] ]
  in
  let answer = R.Tuple.of_list [ R.Value.str "Tom"; R.Value.str "lit" ] in
  let cc = Cq.Lineage.where_ db qc answer in
  Alcotest.(check int) "constant: no cells" 0 (List.length cc.(1))

(* ---- causality / responsibility ---- *)

let test_counterfactual () =
  let db = aj_db () in
  let q4 = Workload.Author_journal.q4 in
  let answer = R.Tuple.strs [ "John"; "TODS"; "XML" ] in
  (* unique witness: both tuples are counterfactual *)
  Alcotest.(check bool) "author row counterfactual" true
    (Cq.Causality.is_counterfactual db q4 ~answer (st "T1" [ "John"; "TODS" ]));
  check_float "responsibility 1" 1.0
    (Cq.Causality.responsibility db q4 ~answer (st "T1" [ "John"; "TODS" ]))

let test_actual_cause_with_contingency () =
  let db = aj_db () in
  let q3 = Workload.Author_journal.q3 in
  let answer = R.Tuple.strs [ "John"; "XML" ] in
  (* two derivations: T1(John,TKDE) alone is not counterfactual, but with
     contingency {T1(John,TODS)} (or the TODS journal row) it is *)
  let t = st "T1" [ "John"; "TKDE" ] in
  Alcotest.(check bool) "not counterfactual" false
    (Cq.Causality.is_counterfactual db q3 ~answer t);
  Alcotest.(check bool) "actual cause" true (Cq.Causality.is_cause db q3 ~answer t);
  check_float "responsibility 1/2" 0.5 (Cq.Causality.responsibility db q3 ~answer t)

let test_non_cause () =
  let db = aj_db () in
  let q4 = Workload.Author_journal.q4 in
  let answer = R.Tuple.strs [ "John"; "TODS"; "XML" ] in
  check_float "unrelated tuple: responsibility 0" 0.0
    (Cq.Causality.responsibility db q4 ~answer (st "T1" [ "Joe"; "TKDE" ]))

let test_ranking () =
  let db = aj_db () in
  let q3 = Workload.Author_journal.q3 in
  let ranking = Cq.Causality.ranking db q3 ~answer:(R.Tuple.strs [ "John"; "XML" ]) in
  Alcotest.(check int) "four lineage tuples" 4 (List.length ranking);
  List.iter
    (fun (_, r) -> check_float "all responsibility 1/2" 0.5 r)
    ranking

(* every counterfactual cause has responsibility 1; responsibilities lie
   in [0, 1] *)
let prop_responsibility_bounds =
  qcheck ~count:30 "responsibility in [0,1]; counterfactual => 1"
    QCheck2.Gen.(int_range 0 5_000)
    (fun seed ->
      let rng = rng seed in
      let p =
        Workload.Pivot_family.generate ~rng
          { Workload.Pivot_family.default with depth = 2; tuples_per_relation = 4;
            num_queries = 1 }
      in
      match p.D.Problem.queries with
      | [ q ] ->
        let db = p.D.Problem.db in
        let answers = Cq.Eval.evaluate db q in
        R.Tuple.Set.for_all
          (fun answer ->
            Cq.Causality.ranking db q ~answer
            |> List.for_all (fun (t, r) ->
                   r >= 0.0 && r <= 1.0
                   && ((not (Cq.Causality.is_counterfactual db q ~answer t)) || feq r 1.0)))
          answers
      | _ -> false)

(* ---- UCQ ---- *)

let ucq_schema =
  R.Schema.Db.of_list
    [
      R.Schema.make ~name:"A" ~attrs:[ "k"; "v" ] ~key:[ 0 ];
      R.Schema.make ~name:"B" ~attrs:[ "k"; "v" ] ~key:[ 0 ];
    ]

let ucq_db () =
  R.Instance.of_alist ucq_schema
    [
      ("A", [ R.Tuple.ints [ 1; 5 ]; R.Tuple.ints [ 2; 6 ] ]);
      ("B", [ R.Tuple.ints [ 1; 5 ]; R.Tuple.ints [ 3; 7 ] ]);
    ]

let ucq () =
  Cq.Ucq.make ~name:"U"
    [ parse "U(K, V) :- A(K, V)"; parse "U(K, V) :- B(K, V)" ]

let test_ucq_eval () =
  let u = ucq () in
  Cq.Ucq.check ucq_schema u;
  Alcotest.(check int) "union size" 3 (R.Tuple.Set.cardinal (Cq.Ucq.evaluate (ucq_db ()) u));
  Alcotest.(check int) "arity" 2 (Cq.Ucq.arity u);
  Alcotest.(check bool) "mismatched arity rejected" true
    (try ignore (Cq.Ucq.make ~name:"Z" [ parse "Z(K) :- A(K, V)"; parse "Z(K, V) :- B(K, V)" ]); false
     with Invalid_argument _ -> true)

let test_ucq_why () =
  let u = ucq () in
  (* (1, 5) is derived by BOTH disjuncts *)
  Alcotest.(check int) "two derivations" 2
    (List.length (Cq.Ucq.why (ucq_db ()) u (R.Tuple.ints [ 1; 5 ])));
  Alcotest.(check int) "one derivation" 1
    (List.length (Cq.Ucq.why (ucq_db ()) u (R.Tuple.ints [ 2; 6 ])))

let test_ucq_propagate_multi_derivation () =
  let u = ucq () in
  (* killing (1,5) needs BOTH A(1,5) and B(1,5) deleted; no side effect *)
  match Cq.Ucq.propagate (ucq_db ()) [ u ] ~deletions:[ ("U", [ R.Tuple.ints [ 1; 5 ] ]) ] with
  | None -> Alcotest.fail "expected a solution"
  | Some o ->
    Alcotest.(check int) "two source deletions" 2 (R.Stuple.Set.cardinal o.Cq.Ucq.deletion);
    Alcotest.(check int) "no side effect" 0 o.Cq.Ucq.side_effect

let test_ucq_propagate_single_derivation () =
  let u = ucq () in
  match Cq.Ucq.propagate (ucq_db ()) [ u ] ~deletions:[ ("U", [ R.Tuple.ints [ 3; 7 ] ]) ] with
  | None -> Alcotest.fail "expected a solution"
  | Some o ->
    Alcotest.(check int) "one deletion" 1 (R.Stuple.Set.cardinal o.Cq.Ucq.deletion);
    Alcotest.(check int) "no side effect" 0 o.Cq.Ucq.side_effect

let test_ucq_propagate_not_an_answer () =
  let u = ucq () in
  Alcotest.(check bool) "non-answer rejected" true
    (Cq.Ucq.propagate (ucq_db ()) [ u ] ~deletions:[ ("U", [ R.Tuple.ints [ 9; 9 ] ]) ] = None)

let suite =
  [
    Alcotest.test_case "index: column_set" `Quick test_column_set;
    Alcotest.test_case "index: maintained under remove" `Quick test_index_maintained_under_remove;
    prop_index_agrees_with_scan;
    Alcotest.test_case "lineage: why-provenance (Fig. 1)" `Quick test_why_provenance;
    Alcotest.test_case "lineage: minimal why with self-joins" `Quick test_minimal_why_self_join;
    Alcotest.test_case "lineage: where-provenance" `Quick test_where_provenance;
    Alcotest.test_case "causality: counterfactual" `Quick test_counterfactual;
    Alcotest.test_case "causality: actual cause via contingency" `Quick
      test_actual_cause_with_contingency;
    Alcotest.test_case "causality: non-cause" `Quick test_non_cause;
    Alcotest.test_case "causality: ranking" `Quick test_ranking;
    prop_responsibility_bounds;
    Alcotest.test_case "ucq: evaluation" `Quick test_ucq_eval;
    Alcotest.test_case "ucq: why across disjuncts" `Quick test_ucq_why;
    Alcotest.test_case "ucq: propagate multi-derivation answer" `Quick
      test_ucq_propagate_multi_derivation;
    Alcotest.test_case "ucq: propagate single-derivation answer" `Quick
      test_ucq_propagate_single_derivation;
    Alcotest.test_case "ucq: non-answer rejected" `Quick test_ucq_propagate_not_an_answer;
  ]

(* ---- non-recursive datalog programs (views over views) ---- *)

let prog_schema =
  R.Schema.Db.of_list
    [
      R.Schema.make ~name:"T1" ~attrs:[ "a"; "b" ] ~key:[ 0; 1 ];
      R.Schema.make ~name:"T2" ~attrs:[ "b"; "c"; "d" ] ~key:[ 0; 1 ];
    ]

let prog_db () =
  R.Instance.of_alist prog_schema
    [
      ("T1", [ R.Tuple.strs [ "john"; "tkde" ]; R.Tuple.strs [ "joe"; "tkde" ];
               R.Tuple.strs [ "john"; "tods" ] ]);
      ("T2", [ R.Tuple.strs [ "tkde"; "xml"; "n" ]; R.Tuple.strs [ "tkde"; "cube"; "n" ];
               R.Tuple.strs [ "tods"; "xml"; "n" ] ]);
    ]

let test_program_unfold_composition () =
  let rules =
    [
      parse "V1(X, Z) :- T1(X, Y), T2(Y, Z, W)";
      parse "V2(X) :- V1(X, xml)";
    ]
  in
  match Cq.Program.make ~schema:prog_schema rules with
  | Error e -> Alcotest.failf "make: %a" Cq.Program.pp_error e
  | Ok prog -> (
    Alcotest.(check (list string)) "predicates" [ "V1"; "V2" ] (Cq.Program.predicates prog);
    Alcotest.(check (list string)) "V2 depends on V1" [ "V1" ]
      (Cq.Program.depends_on prog "V2");
    match Cq.Program.unfold prog ~schema:prog_schema "V2" with
    | Error e -> Alcotest.failf "unfold: %a" Cq.Program.pp_error e
    | Ok u ->
      (* the unfolding is a single CQ over T1, T2 *)
      Alcotest.(check int) "one disjunct" 1 (List.length u.Cq.Ucq.disjuncts);
      let direct = parse "V2(X) :- T1(X, Y), T2(Y, xml, W)" in
      Alcotest.(check bool) "equivalent to the manual unfolding" true
        (Cq.Containment.equivalent (List.hd u.Cq.Ucq.disjuncts) direct);
      Alcotest.check tuple_set "evaluates like the manual unfolding"
        (Cq.Eval.evaluate (prog_db ()) direct)
        (Cq.Ucq.evaluate (prog_db ()) u))

let test_program_union_rules () =
  (* two rules for the same predicate become a union *)
  let rules =
    [ parse "V(X) :- T1(X, tkde)"; parse "V(X) :- T1(X, tods)" ]
  in
  match Cq.Program.make ~schema:prog_schema rules with
  | Error e -> Alcotest.failf "make: %a" Cq.Program.pp_error e
  | Ok prog -> (
    match Cq.Program.evaluate prog (prog_db ()) "V" with
    | Error e -> Alcotest.failf "eval: %a" Cq.Program.pp_error e
    | Ok view ->
      Alcotest.check tuple_set "union of both rules"
        (R.Tuple.Set.of_list [ R.Tuple.strs [ "john" ]; R.Tuple.strs [ "joe" ] ])
        view)

let test_program_deep_stack () =
  (* three levels with a union in the middle *)
  let rules =
    [
      parse "V1(X, Y) :- T1(X, Y)";
      parse "V2(X) :- V1(X, tkde)";
      parse "V2(X) :- V1(X, tods)";
      parse "V3(X, XX) :- V2(X), V2(XX)";
    ]
  in
  match Cq.Program.make ~schema:prog_schema rules with
  | Error e -> Alcotest.failf "make: %a" Cq.Program.pp_error e
  | Ok prog -> (
    match Cq.Program.unfold prog ~schema:prog_schema "V3" with
    | Error e -> Alcotest.failf "unfold: %a" Cq.Program.pp_error e
    | Ok u ->
      (* 2 x 2 rule choices = up to 4 disjuncts (all distinct here) *)
      Alcotest.(check int) "four disjuncts" 4 (List.length u.Cq.Ucq.disjuncts);
      (match Cq.Program.evaluate prog (prog_db ()) "V3" with
      | Ok view ->
        (* authors {john, joe} x {john, joe} = 4 pairs (john in both venues) *)
        Alcotest.(check int) "pairs" 4 (R.Tuple.Set.cardinal view)
      | Error e -> Alcotest.failf "eval: %a" Cq.Program.pp_error e))

let test_program_rejects_recursion () =
  let rules =
    [ parse "P(X) :- Q(X)"; parse "Q(X) :- P(X)" ]
  in
  match Cq.Program.make ~schema:prog_schema rules with
  | Error (Cq.Program.Recursive _) -> ()
  | Error e -> Alcotest.failf "wrong error: %a" Cq.Program.pp_error e
  | Ok _ -> Alcotest.fail "expected recursion error"

let test_program_rejects_unknown_edb () =
  match Cq.Program.make ~schema:prog_schema [ parse "P(X) :- Zed(X, Y)" ] with
  | Error (Cq.Program.Unknown_predicate _) -> ()
  | _ -> Alcotest.fail "expected unknown predicate"

let test_program_propagation_through_views () =
  (* deletion propagation on a stacked view, via unfolding to UCQ *)
  let rules =
    [
      parse "V1(X, Z) :- T1(X, Y), T2(Y, Z, W)";
      parse "V2(X) :- V1(X, xml)";
    ]
  in
  let prog = Result.get_ok (Cq.Program.make ~schema:prog_schema rules) in
  let u = Result.get_ok (Cq.Program.unfold prog ~schema:prog_schema "V2") in
  let db = prog_db () in
  match
    Cq.Ucq.propagate db [ u ] ~deletions:[ ("V2", [ R.Tuple.strs [ "john" ] ]) ]
  with
  | None -> Alcotest.fail "expected a propagation plan"
  | Some o ->
    (* john must vanish from the stacked view; joe must survive where
       possible — deleting john's two author rows costs nothing else *)
    Alcotest.(check bool) "john removed" true
      (List.mem ("V2", R.Tuple.strs [ "john" ]) o.Cq.Ucq.killed);
    Alcotest.(check int) "no collateral" 0 o.Cq.Ucq.side_effect

let suite =
  suite
  @ [
      Alcotest.test_case "program: unfold composition" `Quick test_program_unfold_composition;
      Alcotest.test_case "program: union rules" `Quick test_program_union_rules;
      Alcotest.test_case "program: deep stack" `Quick test_program_deep_stack;
      Alcotest.test_case "program: recursion rejected" `Quick test_program_rejects_recursion;
      Alcotest.test_case "program: unknown EDB rejected" `Quick test_program_rejects_unknown_edb;
      Alcotest.test_case "program: propagation through stacked views" `Quick
        test_program_propagation_through_views;
    ]
