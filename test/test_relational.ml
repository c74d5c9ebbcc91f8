(* Tests for the relational substrate: values, tuples, schemas, keys,
   relations, instances, serialization. *)

open Util
module R = Relational

(* ---- values ---- *)

let test_value_order () =
  Alcotest.(check bool) "Int < Str" true (R.Value.compare (R.Value.int 5) (R.Value.str "a") < 0);
  Alcotest.(check bool) "int order" true (R.Value.compare (R.Value.int 1) (R.Value.int 2) < 0);
  Alcotest.(check bool) "str order" true (R.Value.compare (R.Value.str "a") (R.Value.str "b") < 0);
  Alcotest.(check bool) "equal" true (R.Value.equal (R.Value.str "x") (R.Value.str "x"))

let test_value_parse () =
  Alcotest.check value "int literal" (R.Value.int 42) (R.Value.of_string "42");
  Alcotest.check value "negative int" (R.Value.int (-7)) (R.Value.of_string "-7");
  Alcotest.check value "bare string" (R.Value.str "abc") (R.Value.of_string "abc");
  Alcotest.check value "quoted string" (R.Value.str "a b") (R.Value.of_string "'a b'");
  Alcotest.check value "trimmed" (R.Value.int 3) (R.Value.of_string "  3 ")

let test_value_fresh () =
  R.Value.reset_fresh ();
  let a = R.Value.fresh () and b = R.Value.fresh () in
  Alcotest.(check bool) "fresh distinct" false (R.Value.equal a b);
  R.Value.reset_fresh ();
  let a' = R.Value.fresh () in
  Alcotest.check value "reset reproduces" a a'

(* A [Hashtbl.Make] table picks a bucket from a hash's low bits, so
   int-valued tuples must spread over them: 1 024 distinct pairs land
   in about 647 of 1 024 ten-bit buckets when the hash is uniform, and
   in at most 512 when one low bit is constant. *)
let test_value_hash_low_bits () =
  let buckets = Hashtbl.create 1024 in
  for i = 0 to 31 do
    for j = 0 to 31 do
      Hashtbl.replace buckets (R.Tuple.hash (R.Tuple.ints [ i; j ]) land 1023) ()
    done
  done;
  Alcotest.(check bool)
    (Printf.sprintf "%d of 1024 buckets used" (Hashtbl.length buckets))
    true
    (Hashtbl.length buckets > 580);
  Alcotest.(check bool) "equal values hash equal" true
    (R.Value.hash (R.Value.str "x") = R.Value.hash (R.Value.of_string "x"))

(* ---- tuples ---- *)

let test_tuple_basics () =
  let t = R.Tuple.ints [ 1; 2; 3 ] in
  Alcotest.(check int) "arity" 3 (R.Tuple.arity t);
  Alcotest.check value "get" (R.Value.int 2) (R.Tuple.get t 1);
  Alcotest.check tuple "project" (R.Tuple.ints [ 3; 1 ]) (R.Tuple.project t [ 2; 0 ]);
  Alcotest.(check bool) "project out of range" true
    (try ignore (R.Tuple.project t [ 5 ]); false with Invalid_argument _ -> true)

let test_tuple_compare () =
  Alcotest.(check bool) "shorter first" true
    (R.Tuple.compare (R.Tuple.ints [ 1 ]) (R.Tuple.ints [ 1; 1 ]) < 0);
  Alcotest.(check bool) "lexicographic" true
    (R.Tuple.compare (R.Tuple.ints [ 1; 2 ]) (R.Tuple.ints [ 1; 3 ]) < 0);
  Alcotest.(check bool) "equal" true (R.Tuple.equal (R.Tuple.strs [ "a" ]) (R.Tuple.strs [ "a" ]))

let tuple_gen =
  QCheck2.Gen.(map (fun l -> R.Tuple.ints l) (list_size (int_range 1 5) (int_range 0 9)))

let prop_tuple_compare_refl =
  qcheck "tuple compare reflexive" tuple_gen (fun t -> R.Tuple.compare t t = 0)

let prop_tuple_project_id =
  qcheck "projecting all positions is identity" tuple_gen (fun t ->
      R.Tuple.equal t (R.Tuple.project t (List.init (R.Tuple.arity t) Fun.id)))

(* [Stuple.to_string] (and [pp], which prints it) writes through a
   Buffer the bytes a [Format] printer of [rel(v1, v2, ...)] writes:
   the same bytes, on the values a formatter might treat specially —
   signs and the int extremes, empty strings, the separators and
   brackets the printer writes itself, a newline, the format-string
   metacharacters and lines past the default margin *)
let stuple_gen =
  let open QCheck2.Gen in
  let piece =
    oneof
      [
        pure ""; pure ", "; pure "("; pure ")"; pure "\n"; pure "%"; pure "@"; pure "@[<v>";
        pure "%d"; string_size ~gen:printable (int_range 0 8);
        string_size ~gen:char (int_range 0 4);
      ]
  in
  let str = map2 ( ^ ) piece (oneof [ pure ""; piece; string_size ~gen:printable (int_range 70 120) ]) in
  let value =
    oneof
      [
        map R.Value.int int; map R.Value.int (int_range (-1000) (-1)); pure (R.Value.int min_int);
        pure (R.Value.int max_int); pure (R.Value.int 0); map R.Value.str str;
      ]
  in
  map2 (fun rel vs -> R.Stuple.make rel (R.Tuple.of_list vs)) str (list_size (int_range 0 6) value)

let format_oracle (st : R.Stuple.t) =
  let value ppf = function
    | R.Value.Int x -> Format.pp_print_int ppf x
    | R.Value.Str s -> Format.pp_print_string ppf s
  in
  Format.asprintf "%s(%a)" st.R.Stuple.rel
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ") value)
    (R.Tuple.to_list st.R.Stuple.tuple)

let prop_stuple_to_string =
  qcheck ~count:500 "stuple: to_string = pp = Format oracle" stuple_gen (fun st ->
      let expected = format_oracle st in
      String.equal (R.Stuple.to_string st) expected
      && String.equal (Format.asprintf "%a" R.Stuple.pp st) expected)

(* ---- schemas ---- *)

let test_schema_make () =
  let s = R.Schema.make ~name:"T" ~attrs:[ "a"; "b"; "c" ] ~key:[ 2; 0 ] in
  Alcotest.(check (list int)) "key sorted" [ 0; 2 ] s.R.Schema.key;
  Alcotest.(check (list int)) "non-key" [ 1 ] (R.Schema.non_key s);
  Alcotest.(check int) "attr index" 1 (R.Schema.attr_index s "b");
  Alcotest.check tuple "key_of_tuple" (R.Tuple.ints [ 1; 3 ])
    (R.Schema.key_of_tuple s (R.Tuple.ints [ 1; 2; 3 ]))

let test_schema_invalid () =
  let fails f = Alcotest.(check bool) "rejected" true (try ignore (f ()); false with Invalid_argument _ -> true) in
  fails (fun () -> R.Schema.make ~name:"T" ~attrs:[] ~key:[ 0 ]);
  fails (fun () -> R.Schema.make ~name:"T" ~attrs:[ "a" ] ~key:[]);
  fails (fun () -> R.Schema.make ~name:"T" ~attrs:[ "a" ] ~key:[ 1 ]);
  fails (fun () -> R.Schema.make ~name:"T" ~attrs:[ "a"; "a" ] ~key:[ 0 ]);
  fails (fun () -> R.Schema.make ~name:"T" ~attrs:[ "a"; "b" ] ~key:[ 0; 0 ])

let test_schema_db () =
  let s1 = R.Schema.make_anon ~name:"A" ~arity:2 ~key:[ 0 ] in
  let s2 = R.Schema.make_anon ~name:"B" ~arity:1 ~key:[ 0 ] in
  let db = R.Schema.Db.of_list [ s1; s2 ] in
  Alcotest.(check (list string)) "names" [ "A"; "B" ] (R.Schema.Db.names db);
  Alcotest.(check bool) "mem" true (R.Schema.Db.mem db "A");
  Alcotest.(check bool) "not mem" false (R.Schema.Db.mem db "C");
  Alcotest.(check bool) "duplicate rejected" true
    (try ignore (R.Schema.Db.of_list [ s1; s1 ]); false with Invalid_argument _ -> true)

(* ---- relations and keys ---- *)

let abc_schema = R.Schema.make ~name:"T" ~attrs:[ "k"; "v" ] ~key:[ 0 ]

let test_relation_key_enforcement () =
  let r = R.Relation.empty abc_schema in
  let r = R.Relation.add r (R.Tuple.ints [ 1; 10 ]) in
  let r = R.Relation.add r (R.Tuple.ints [ 2; 20 ]) in
  (* same tuple again: idempotent *)
  let r = R.Relation.add r (R.Tuple.ints [ 1; 10 ]) in
  Alcotest.(check int) "cardinal" 2 (R.Relation.cardinal r);
  (* same key, different tuple: violation *)
  Alcotest.(check bool) "key violation" true
    (try ignore (R.Relation.add r (R.Tuple.ints [ 1; 99 ])); false
     with R.Relation.Key_violation _ -> true)

let test_relation_arity_mismatch () =
  let r = R.Relation.empty abc_schema in
  Alcotest.(check bool) "arity mismatch" true
    (try ignore (R.Relation.add r (R.Tuple.ints [ 1; 2; 3 ])); false
     with R.Relation.Arity_mismatch _ -> true)

let test_relation_find_by_key () =
  let r = R.Relation.of_tuples abc_schema [ R.Tuple.ints [ 1; 10 ]; R.Tuple.ints [ 2; 20 ] ] in
  Alcotest.(check (option tuple)) "hit" (Some (R.Tuple.ints [ 2; 20 ]))
    (R.Relation.find_by_key r (R.Tuple.ints [ 2 ]));
  Alcotest.(check (option tuple)) "miss" None (R.Relation.find_by_key r (R.Tuple.ints [ 3 ]))

let test_relation_remove () =
  let r = R.Relation.of_tuples abc_schema [ R.Tuple.ints [ 1; 10 ]; R.Tuple.ints [ 2; 20 ] ] in
  let r = R.Relation.remove r (R.Tuple.ints [ 1; 10 ]) in
  Alcotest.(check int) "cardinal after remove" 1 (R.Relation.cardinal r);
  Alcotest.(check (option tuple)) "key index updated" None
    (R.Relation.find_by_key r (R.Tuple.ints [ 1 ]));
  (* removing an absent tuple is a no-op *)
  let r = R.Relation.remove r (R.Tuple.ints [ 9; 9 ]) in
  Alcotest.(check int) "noop remove" 1 (R.Relation.cardinal r)

let test_relation_remove_then_readd () =
  let r = R.Relation.of_tuples abc_schema [ R.Tuple.ints [ 1; 10 ] ] in
  let r = R.Relation.remove r (R.Tuple.ints [ 1; 10 ]) in
  let r = R.Relation.add r (R.Tuple.ints [ 1; 99 ]) in
  Alcotest.(check bool) "re-add same key ok" true (R.Relation.mem r (R.Tuple.ints [ 1; 99 ]))

(* ---- instances ---- *)

let two_rel_schema =
  R.Schema.Db.of_list
    [ R.Schema.make ~name:"A" ~attrs:[ "k"; "v" ] ~key:[ 0 ];
      R.Schema.make ~name:"B" ~attrs:[ "k" ] ~key:[ 0 ] ]

let test_instance_basics () =
  let db =
    R.Instance.of_alist two_rel_schema
      [ ("A", [ R.Tuple.ints [ 1; 10 ]; R.Tuple.ints [ 2; 20 ] ]); ("B", [ R.Tuple.ints [ 7 ] ]) ]
  in
  Alcotest.(check int) "size" 3 (R.Instance.size db);
  Alcotest.(check bool) "mem" true (R.Instance.mem db (R.Stuple.make "A" (R.Tuple.ints [ 1; 10 ])));
  let dd = R.Stuple.Set.singleton (R.Stuple.make "A" (R.Tuple.ints [ 1; 10 ])) in
  let db' = R.Instance.delete db dd in
  Alcotest.(check int) "size after delete" 2 (R.Instance.size db');
  Alcotest.(check bool) "original unchanged" true
    (R.Instance.mem db (R.Stuple.make "A" (R.Tuple.ints [ 1; 10 ])))

let test_instance_unknown_relation () =
  let db = R.Instance.empty two_rel_schema in
  Alcotest.(check bool) "unknown relation" true
    (try ignore (R.Instance.add db "Z" (R.Tuple.ints [ 1 ])); false
     with Invalid_argument _ -> true)

let test_instance_stuples () =
  let db =
    R.Instance.of_alist two_rel_schema
      [ ("A", [ R.Tuple.ints [ 1; 10 ] ]); ("B", [ R.Tuple.ints [ 7 ] ]) ]
  in
  Alcotest.(check int) "stuples" 2 (List.length (R.Instance.stuples db))

(* ---- serialization ---- *)

let roundtrip_text = {|
# comment line
rel T1(name*, journal)
T1(john, tkde)
T1(tom, tkde)
rel T2(journal*, topic*, n)
T2(tkde, xml, 30)
|}

let test_serial_roundtrip () =
  let db = R.Serial.instance_of_string roundtrip_text in
  Alcotest.(check int) "size" 3 (R.Instance.size db);
  let s = R.Serial.instance_to_string db in
  let db2 = R.Serial.instance_of_string s in
  Alcotest.(check bool) "roundtrip equal" true (R.Instance.equal db db2)

let test_serial_errors () =
  let fails text =
    Alcotest.(check bool) "parse error" true
      (try ignore (R.Serial.instance_of_string text); false with R.Serial.Parse_error _ -> true)
  in
  fails "rel T(a)\nT(1)";                      (* no key *)
  fails "rel T(a*)\nU(1)";                     (* undeclared relation *)
  fails "rel T(a*)\nT(1, 2)";                  (* arity mismatch *)
  fails "rel T(a*, b)\nT(1, 2)\nT(1, 3)";      (* key violation *)
  fails "rel T(a*";                            (* unterminated decl *)
  fails "rel T(a*)\nT(1"                       (* unterminated fact *)

let test_serial_values () =
  let db = R.Serial.instance_of_string "rel T(a*, b)\nT(5, 'x y')" in
  let r = R.Instance.relation db "T" in
  Alcotest.(check bool) "typed values" true
    (R.Relation.mem r (R.Tuple.of_list [ R.Value.int 5; R.Value.str "x y" ]))

(* ---- the planner statistics: O(1) counters ≡ recounts ---- *)

(* key on column 0, so adds of (k, v') over a present (k, v) are
   rejected key violations; columns 1 and 2 repeat values across tuples *)
let stats_schema = R.Schema.make ~name:"S" ~attrs:[ "k"; "v"; "p" ] ~key:[ 0 ]

let recount_distinct set col =
  List.length
    (List.sort_uniq R.Value.compare
       (R.Tuple.Set.fold (fun t acc -> R.Tuple.get t col :: acc) set []))

let prop_relation_stats =
  qcheck ~count:300 "relation: cardinal/distinct_in_column ≡ recounts"
    QCheck2.Gen.(list_size (int_range 0 60) (triple bool (int_range 0 5) (int_range 0 3)))
    (fun ops ->
      List.fold_left
        (fun (r, ok) (add, k, v) ->
          let t = R.Tuple.ints [ k; v; v mod 2 ] in
          let r =
            if add then
              (* duplicates are idempotent, key violations leave [r] *)
              try R.Relation.add r t with R.Relation.Key_violation _ -> r
            else R.Relation.remove r t (* absent tuples included *)
          in
          let set = R.Relation.to_set r in
          ( r,
            ok
            && R.Relation.cardinal r = R.Tuple.Set.cardinal set
            && R.Relation.is_empty r = R.Tuple.Set.is_empty set
            && List.for_all
                 (fun col -> R.Relation.distinct_in_column r col = recount_distinct set col)
                 [ 0; 1; 2 ] ))
        (R.Relation.empty stats_schema, true)
        ops
      |> snd)

(* the E18 join-order experiment's queries (body reversed, as E18 runs
   them): the statistics feed [Optimizer.order], so the chosen plans and
   their row estimates are pinned to what the recounting implementation
   produced *)
let test_plan_order_e18 () =
  List.iter
    (fun ((dims, fact, dim), expect, rows) ->
      let p =
        Workload.Random_family.generate ~rng:(rng (18_000 + dims))
          { Workload.Random_family.default with num_dimensions = dims;
            dims_per_query = dims; fact_tuples = fact; dim_tuples = dim; num_queries = 1 }
      in
      match p.D.Problem.queries with
      | [ q ] ->
        let adversarial = { q with Cq.Query.body = List.rev q.Cq.Query.body } in
        let tag = Printf.sprintf "(%d, %d, %d)" dims fact dim in
        Alcotest.(check (array int)) ("plan " ^ tag) expect
          (Cq.Plan.order p.D.Problem.db adversarial);
        Alcotest.(check (float 1e-6)) ("estimated rows " ^ tag) rows
          (Cq.Optimizer.estimated_rows p.D.Problem.db adversarial)
      | _ -> Alcotest.fail "E18 instances carry one query")
    [
      ((2, 30, 10), [| 0; 2; 1 |], 100.0 /. 3.0);
      ((3, 30, 10), [| 0; 3; 1; 2 |], 30.0);
      ((3, 60, 12), [| 0; 3; 1; 2 |], 60.0);
    ]

let suite =
  [
    Alcotest.test_case "value: ordering" `Quick test_value_order;
    Alcotest.test_case "value: parsing" `Quick test_value_parse;
    Alcotest.test_case "value: fresh constants" `Quick test_value_fresh;
    Alcotest.test_case "value: hash spreads int tuples over low bits" `Quick
      test_value_hash_low_bits;
    Alcotest.test_case "tuple: basics" `Quick test_tuple_basics;
    Alcotest.test_case "tuple: compare" `Quick test_tuple_compare;
    prop_tuple_compare_refl;
    prop_tuple_project_id;
    prop_stuple_to_string;
    Alcotest.test_case "schema: make / key projection" `Quick test_schema_make;
    Alcotest.test_case "schema: invalid inputs rejected" `Quick test_schema_invalid;
    Alcotest.test_case "schema: database schema" `Quick test_schema_db;
    Alcotest.test_case "relation: key enforcement" `Quick test_relation_key_enforcement;
    Alcotest.test_case "relation: arity mismatch" `Quick test_relation_arity_mismatch;
    Alcotest.test_case "relation: find_by_key" `Quick test_relation_find_by_key;
    Alcotest.test_case "relation: remove" `Quick test_relation_remove;
    Alcotest.test_case "relation: remove then re-add same key" `Quick test_relation_remove_then_readd;
    prop_relation_stats;
    Alcotest.test_case "relation: E18 join orders unchanged" `Quick test_plan_order_e18;
    Alcotest.test_case "instance: add/delete/mem" `Quick test_instance_basics;
    Alcotest.test_case "instance: unknown relation" `Quick test_instance_unknown_relation;
    Alcotest.test_case "instance: stuples" `Quick test_instance_stuples;
    Alcotest.test_case "serial: roundtrip" `Quick test_serial_roundtrip;
    Alcotest.test_case "serial: error reporting" `Quick test_serial_errors;
    Alcotest.test_case "serial: typed values" `Quick test_serial_values;
  ]
