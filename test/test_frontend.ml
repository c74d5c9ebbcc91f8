(* Tests for the data/query front ends: the SQL translator and the CSV
   loader. *)

open Util
module R = Relational

let schema =
  R.Schema.Db.of_list
    [
      R.Schema.make ~name:"T1" ~attrs:[ "AuName"; "Journal" ] ~key:[ 0; 1 ];
      R.Schema.make ~name:"T2" ~attrs:[ "Journal"; "Topic"; "Papers" ] ~key:[ 0; 1 ];
    ]

let sql s =
  match Cq.Sql.query_of_string ~schema ~name:"Q" s with
  | Ok q -> q
  | Error e -> Alcotest.failf "sql failed: %a" Cq.Sql.pp_error e

let sql_fails s =
  match Cq.Sql.query_of_string ~schema ~name:"Q" s with
  | Ok _ -> Alcotest.failf "expected failure for %s" s
  | Error _ -> ()

let db () = Workload.Author_journal.db ()

(* ---- SQL translation ---- *)

let test_sql_join () =
  let q = sql "SELECT a.AuName, j.Topic FROM T1 a, T2 j WHERE a.Journal = j.Journal" in
  Alcotest.(check int) "two atoms" 2 (List.length q.Cq.Query.body);
  Alcotest.(check int) "arity 2" 2 (Cq.Query.arity q);
  (* same answers as the datalog Q3 *)
  let q3 = Workload.Author_journal.q3 in
  Alcotest.check tuple_set "equals Q3" (Cq.Eval.evaluate (db ()) q3)
    (Cq.Eval.evaluate (db ()) q)

let test_sql_constants () =
  let q =
    sql "SELECT a.AuName FROM T1 a, T2 j WHERE a.Journal = j.Journal AND j.Topic = 'XML'"
  in
  Alcotest.check tuple_set "XML authors"
    (R.Tuple.Set.of_list
       [ R.Tuple.strs [ "Joe" ]; R.Tuple.strs [ "John" ]; R.Tuple.strs [ "Tom" ] ])
    (Cq.Eval.evaluate (db ()) q)

let test_sql_int_constant () =
  let q = sql "SELECT j.Journal FROM T2 j WHERE j.Papers = 30" in
  Alcotest.(check int) "both journals" 2
    (R.Tuple.Set.cardinal (Cq.Eval.evaluate (db ()) q))

let test_sql_star () =
  let q = sql "SELECT * FROM T1 a" in
  Alcotest.(check int) "full arity" 2 (Cq.Query.arity q);
  Alcotest.(check int) "four rows" 4 (R.Tuple.Set.cardinal (Cq.Eval.evaluate (db ()) q))

let test_sql_self_join () =
  (* co-authorship through a shared journal, via two aliases of T1 *)
  let q =
    sql "SELECT x.AuName, y.AuName FROM T1 x, T1 y WHERE x.Journal = y.Journal"
  in
  Alcotest.(check bool) "self-join detected" false (Cq.Classify.is_self_join_free q);
  Alcotest.(check bool) "John-Joe co-journal" true
    (R.Tuple.Set.mem (R.Tuple.strs [ "John"; "Joe" ]) (Cq.Eval.evaluate (db ()) q))

let test_sql_bare_columns () =
  (* AuName is unambiguous; Journal is not *)
  let q = sql "SELECT AuName FROM T1 a" in
  Alcotest.(check int) "bare ok" 1 (Cq.Query.arity q);
  sql_fails "SELECT Journal FROM T1 a, T2 j"

let test_sql_errors () =
  sql_fails "SELECTT x FROM T1 a";
  sql_fails "SELECT a.Nope FROM T1 a";
  sql_fails "SELECT a.AuName FROM Missing a";
  sql_fails "SELECT a.AuName FROM T1 a, T1 a";             (* duplicate alias *)
  sql_fails "SELECT a.AuName FROM T1 a WHERE a.AuName = 'x' AND a.AuName = 'y'";
  sql_fails "SELECT a.AuName FROM T1 a WHERE a.AuName"     (* missing '=' *)

let test_sql_case_insensitive_keywords () =
  let q = sql "select a.AuName from T1 a where a.Journal = 'TKDE'" in
  Alcotest.(check int) "three TKDE authors" 3
    (R.Tuple.Set.cardinal (Cq.Eval.evaluate (db ()) q))

let test_sql_propagation_end_to_end () =
  (* the SQL-defined view participates in deletion propagation *)
  let q =
    match
      Cq.Sql.query_of_string ~schema ~name:"Qs"
        "SELECT a.AuName, a.Journal, j.Topic FROM T1 a, T2 j WHERE a.Journal = j.Journal"
    with
    | Ok q -> q
    | Error e -> Alcotest.failf "sql: %a" Cq.Sql.pp_error e
  in
  let p =
    Deleprop.Problem.make ~db:(db ()) ~queries:[ q ]
      ~deletions:[ ("Qs", [ R.Tuple.strs [ "John"; "TKDE"; "XML" ] ]) ]
      ()
  in
  let prov = Deleprop.Provenance.build p in
  match Deleprop.Brute.solve prov with
  | Some r -> check_float "same optimum as the datalog Q4" 1.0 r.Deleprop.Brute.outcome.Deleprop.Side_effect.cost
  | None -> Alcotest.fail "expected solution"

(* ---- CSV ---- *)

let csv_text = "sku,qty\np1,10\np2,0\n\"p3,x\",7\n"

let test_csv_load () =
  let rel = R.Csv.relation_of_string ~name:"Stock" ~key:[ "sku" ] csv_text in
  Alcotest.(check int) "three rows" 3 (R.Relation.cardinal rel);
  Alcotest.(check bool) "quoted comma preserved" true
    (R.Relation.mem rel (R.Tuple.of_list [ R.Value.str "p3,x"; R.Value.int 7 ]));
  Alcotest.(check int) "int typing" 1
    (R.Tuple.Set.cardinal (R.Relation.column_set rel 1 (R.Value.int 10)))

let test_csv_roundtrip () =
  let rel = R.Csv.relation_of_string ~name:"Stock" ~key:[ "sku" ] csv_text in
  let rel2 =
    R.Csv.relation_of_string ~name:"Stock" ~key:[ "sku" ] (R.Csv.relation_to_string rel)
  in
  Alcotest.(check bool) "roundtrip equal" true (R.Relation.equal rel rel2)

let test_csv_errors () =
  let fails csv key =
    Alcotest.(check bool) "rejected" true
      (try ignore (R.Csv.relation_of_string ~name:"T" ~key csv); false
       with R.Csv.Csv_error _ -> true)
  in
  fails "a,b\n1\n" [ "a" ];                 (* field count *)
  fails "a,b\n1,2\n1,3\n" [ "a" ];          (* key violation *)
  fails "a,b\n1,2\n" [ "zed" ];             (* unknown key attr *)
  fails "" [ "a" ];                          (* empty *)
  fails "a,b\n\"unterminated\n" [ "a" ]     (* quoting *)

let test_csv_into_instance () =
  let db =
    R.Csv.add_to_instance (db ()) ~name:"Stock" ~key:[ "sku" ] csv_text
  in
  Alcotest.(check int) "old + new tuples" 10 (R.Instance.size db);
  Alcotest.(check bool) "old data intact" true
    (R.Instance.mem db (st "T1" [ "John"; "TKDE" ]))

let suite =
  [
    Alcotest.test_case "sql: join = datalog Q3" `Quick test_sql_join;
    Alcotest.test_case "sql: string constants" `Quick test_sql_constants;
    Alcotest.test_case "sql: int constants" `Quick test_sql_int_constant;
    Alcotest.test_case "sql: SELECT *" `Quick test_sql_star;
    Alcotest.test_case "sql: self-join via aliases" `Quick test_sql_self_join;
    Alcotest.test_case "sql: bare columns" `Quick test_sql_bare_columns;
    Alcotest.test_case "sql: errors" `Quick test_sql_errors;
    Alcotest.test_case "sql: case-insensitive keywords" `Quick
      test_sql_case_insensitive_keywords;
    Alcotest.test_case "sql: end-to-end propagation" `Quick test_sql_propagation_end_to_end;
    Alcotest.test_case "csv: load with quoting and typing" `Quick test_csv_load;
    Alcotest.test_case "csv: roundtrip" `Quick test_csv_roundtrip;
    Alcotest.test_case "csv: errors" `Quick test_csv_errors;
    Alcotest.test_case "csv: append to instance" `Quick test_csv_into_instance;
  ]
