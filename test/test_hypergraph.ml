(* Tests for the hypergraph substrate: GYO, β-acyclicity (Fig. 3),
   components, join forests, relation trees, tuple graphs and pivots. *)

open Util
module R = Relational
module H = Hypergraph
module Tg = Reference.Tuple_graph

let mk edges = H.Hgraph.make ~edges ()

(* ---- GYO / acyclicity ---- *)

let test_single_edge () =
  let g = mk [ ("e", [ "a"; "b"; "c" ]) ] in
  Alcotest.(check bool) "alpha" true (H.Hgraph.is_acyclic g);
  Alcotest.(check bool) "beta" true (H.Hgraph.is_beta_acyclic g)

let test_path () =
  let g = mk [ ("e1", [ "a"; "b" ]); ("e2", [ "b"; "c" ]); ("e3", [ "c"; "d" ]) ] in
  Alcotest.(check bool) "alpha" true (H.Hgraph.is_acyclic g);
  Alcotest.(check bool) "beta" true (H.Hgraph.is_beta_acyclic g)

let test_triangle () =
  let g = mk [ ("e1", [ "a"; "b" ]); ("e2", [ "b"; "c" ]); ("e3", [ "a"; "c" ]) ] in
  Alcotest.(check bool) "alpha cyclic" false (H.Hgraph.is_acyclic g);
  Alcotest.(check bool) "beta cyclic" false (H.Hgraph.is_beta_acyclic g)

(* Fig. 3 of the paper *)
let fig3_q1 =
  mk [ ("Q1", [ "T1"; "T2"; "T3" ]); ("Q3", [ "T1"; "T2" ]); ("Q4", [ "T1"; "T3" ]);
       ("Q5", [ "T2"; "T3" ]) ]

let fig3_q2 = mk [ ("Q1", [ "T1"; "T2"; "T3" ]); ("Q3", [ "T1"; "T2" ]); ("Q5", [ "T2"; "T3" ]) ]
let fig3_q3 = mk [ ("Q1", [ "T1"; "T2"; "T3" ]); ("Q2", [ "T1"; "T2"; "T4" ]); ("Q5", [ "T2"; "T3" ]) ]

let test_fig3 () =
  (* Q1: alpha-acyclic (big edge covers the triangle) but NOT a hypertree *)
  Alcotest.(check bool) "Q1 alpha" true (H.Hgraph.is_acyclic fig3_q1);
  Alcotest.(check bool) "Q1 not hypertree" false (H.Hgraph.is_forest fig3_q1);
  Alcotest.(check bool) "Q2 hypertree" true (H.Hgraph.is_forest fig3_q2);
  Alcotest.(check bool) "Q3 hypertree" true (H.Hgraph.is_forest fig3_q3)

let test_components () =
  let g = mk [ ("e1", [ "a"; "b" ]); ("e2", [ "c"; "d" ]); ("e3", [ "d"; "e" ]) ] in
  let comps = H.Hgraph.components g in
  Alcotest.(check int) "two components" 2 (List.length comps);
  let sizes = List.sort Int.compare (List.map H.Hgraph.num_vertices comps) in
  Alcotest.(check (list int)) "sizes" [ 2; 3 ] sizes

let test_join_forest () =
  match H.Hgraph.join_forest fig3_q2 with
  | None -> Alcotest.fail "expected join forest"
  | Some rows ->
    Alcotest.(check int) "three rows" 3 (List.length rows);
    let roots = List.filter (fun (_, p) -> p = None) rows in
    Alcotest.(check int) "one root" 1 (List.length roots)

let test_join_forest_cyclic () =
  let g = mk [ ("e1", [ "a"; "b" ]); ("e2", [ "b"; "c" ]); ("e3", [ "a"; "c" ]) ] in
  Alcotest.(check bool) "no join forest for a cycle" true (H.Hgraph.join_forest g = None)

let test_duplicate_labels_rejected () =
  Alcotest.(check bool) "duplicate labels" true
    (try ignore (mk [ ("e", [ "a" ]); ("e", [ "b" ]) ]); false
     with Invalid_argument _ -> true)

(* ---- dual hypergraph of query sets ---- *)

let schema =
  R.Schema.Db.of_list
    (List.init 4 (fun i ->
         R.Schema.make_anon ~name:(Printf.sprintf "T%d" (i + 1)) ~arity:2 ~key:[ 0 ]))

let test_dual_of_queries () =
  ignore schema;
  let qs =
    [
      Cq.Parser.query_of_string "Q1(X, Y, Z) :- T1(X, Y), T2(Y, Z), T3(Z, X)";
      Cq.Parser.query_of_string "Q2(X, Y) :- T1(X, Y), T2(Y, X)";
    ]
  in
  let g = H.Dual.of_queries qs in
  Alcotest.(check int) "vertices = relations" 3 (H.Hgraph.num_vertices g);
  Alcotest.(check int) "edges = queries" 2 (H.Hgraph.num_edges g)

(* ---- relation trees ---- *)

let test_rel_tree_chain () =
  let qs =
    [
      Cq.Parser.query_of_string "Q1(X, Y, Z) :- T1(X, Y), T2(Y, Z)";
      Cq.Parser.query_of_string "Q2(X, Y, Z) :- T2(X, Y), T3(Y, Z)";
    ]
  in
  match H.Rel_tree.of_queries ~root:"T1" qs with
  | None -> Alcotest.fail "expected a forest"
  | Some t ->
    Alcotest.(check int) "depth T1" 0 (H.Rel_tree.depth t "T1");
    Alcotest.(check int) "depth T2" 1 (H.Rel_tree.depth t "T2");
    Alcotest.(check int) "depth T3" 2 (H.Rel_tree.depth t "T3");
    Alcotest.(check (option string)) "parent T3" (Some "T2") (H.Rel_tree.parent t "T3");
    Alcotest.(check (list string)) "order" [ "T1"; "T2"; "T3" ] (H.Rel_tree.by_increasing_depth t)

let test_rel_tree_cycle () =
  let qs =
    [
      Cq.Parser.query_of_string "Q1(X, Y) :- T1(X, Y), T2(Y, X)";
      Cq.Parser.query_of_string "Q2(X, Y) :- T2(X, Y), T3(Y, X)";
      Cq.Parser.query_of_string "Q3(X, Y) :- T3(X, Y), T1(Y, X)";
    ]
  in
  Alcotest.(check bool) "cycle rejected" true (H.Rel_tree.of_queries qs = None)

let test_rel_tree_self_join () =
  let qs = [ Cq.Parser.query_of_string "Q(X, Y, Z) :- T1(X, Y), T1(Y, Z)" ] in
  Alcotest.(check bool) "self-join rejected" true (H.Rel_tree.of_queries qs = None)

let test_rel_tree_two_components () =
  let qs =
    [
      Cq.Parser.query_of_string "Q1(X, Y, Z) :- T1(X, Y), T2(Y, Z)";
      Cq.Parser.query_of_string "Q2(X, Y) :- T3(X, Y)";
    ]
  in
  match H.Rel_tree.of_queries qs with
  | None -> Alcotest.fail "expected forest"
  | Some t -> Alcotest.(check int) "two roots" 2 (List.length (H.Rel_tree.roots t))

(* ---- tuple graphs / pivots ---- *)

let t name k = st name [ k ]

let test_tuple_graph_forest () =
  let g =
    Tg.of_witness_paths
      [ [ t "A" "1"; t "B" "1" ]; [ t "A" "1"; t "B" "2" ]; [ t "B" "1"; t "C" "1" ] ]
  in
  Alcotest.(check bool) "forest" true (Tg.is_forest g);
  Alcotest.(check int) "vertices" 4 (Tg.num_vertices g);
  Alcotest.(check int) "edges" 3 (Tg.num_edges g)

let test_tuple_graph_cycle () =
  let g =
    Tg.of_witness_paths
      [ [ t "A" "1"; t "B" "1" ]; [ t "B" "1"; t "C" "1" ]; [ t "C" "1"; t "A" "1" ] ]
  in
  Alcotest.(check bool) "cycle" false (Tg.is_forest g)

let test_rooted_depth_paths () =
  let g =
    Tg.of_witness_paths
      [ [ t "A" "1"; t "B" "1"; t "C" "1" ]; [ t "B" "1"; t "D" "1" ] ]
  in
  match Tg.Rooted.at g (t "A" "1") with
  | None -> Alcotest.fail "expected rooted tree"
  | Some r ->
    Alcotest.(check int) "depth C" 2 (Tg.Rooted.depth r (t "C" "1"));
    Alcotest.(check int) "depth D" 2 (Tg.Rooted.depth r (t "D" "1"));
    Alcotest.check stuple_set "path to D"
      (R.Stuple.Set.of_list [ t "A" "1"; t "B" "1"; t "D" "1" ])
      (Tg.Rooted.path_set r (t "D" "1"))

let test_find_pivot_positive () =
  let g =
    Tg.of_witness_paths
      [ [ t "A" "1"; t "B" "1"; t "C" "1" ]; [ t "A" "1"; t "B" "2" ] ]
  in
  let witnesses =
    [
      R.Stuple.Set.of_list [ t "A" "1"; t "B" "1"; t "C" "1" ];
      R.Stuple.Set.of_list [ t "A" "1"; t "B" "2" ];
    ]
  in
  Alcotest.(check (option stuple)) "pivot is the root" (Some (t "A" "1"))
    (Tg.find_pivot g witnesses)

let test_find_pivot_negative () =
  (* two witnesses overlapping in the middle: no common tuple from which
     both are root paths *)
  let g =
    Tg.of_witness_paths
      [ [ t "A" "1"; t "B" "1" ]; [ t "B" "1"; t "C" "1" ] ]
  in
  let witnesses =
    [
      R.Stuple.Set.of_list [ t "A" "1"; t "B" "1" ];
      R.Stuple.Set.of_list [ t "B" "1"; t "C" "1" ];
    ]
  in
  (* B1 is common to both and both are paths from B1 — so this IS a pivot *)
  Alcotest.(check (option stuple)) "pivot in the middle" (Some (t "B" "1"))
    (Tg.find_pivot g witnesses);
  (* but witnesses that skip the common tuple admit none *)
  let g2 =
    Tg.of_witness_paths [ [ t "A" "1"; t "B" "1" ]; [ t "C" "1"; t "D" "1" ] ]
  in
  let w2 =
    [
      R.Stuple.Set.of_list [ t "A" "1"; t "B" "1" ];
      R.Stuple.Set.of_list [ t "C" "1"; t "D" "1" ];
    ]
  in
  Alcotest.(check (option stuple)) "disjoint witnesses: no pivot" None
    (Tg.find_pivot g2 w2)

let test_pivot_requires_root_path () =
  (* witness {A1, C1} is not a contiguous path from A1 (skips B1) *)
  let g = Tg.of_witness_paths [ [ t "A" "1"; t "B" "1"; t "C" "1" ] ] in
  let witnesses = [ R.Stuple.Set.of_list [ t "A" "1"; t "C" "1" ] ] in
  Alcotest.(check (option stuple)) "no pivot" None (Tg.find_pivot g witnesses)

(* random trees are forests; adding any extra edge between existing
   non-adjacent vertices breaks forestness *)
let prop_random_tree_forest =
  qcheck ~count:50 "random witness trees are forests"
    QCheck2.Gen.(int_range 2 30)
    (fun n ->
      let rng = rng n in
      let verts = Array.init n (fun i -> t "V" (string_of_int i)) in
      let g = ref Tg.empty in
      g := Tg.add_vertex !g verts.(0);
      for i = 1 to n - 1 do
        let p = Random.State.int rng i in
        g := Tg.add_edge !g verts.(i) verts.(p)
      done;
      Tg.is_forest !g)

let suite =
  [
    Alcotest.test_case "gyo: single edge" `Quick test_single_edge;
    Alcotest.test_case "gyo: path" `Quick test_path;
    Alcotest.test_case "gyo: triangle" `Quick test_triangle;
    Alcotest.test_case "fig3: hypertree classification" `Quick test_fig3;
    Alcotest.test_case "components" `Quick test_components;
    Alcotest.test_case "join forest" `Quick test_join_forest;
    Alcotest.test_case "join forest: cyclic input" `Quick test_join_forest_cyclic;
    Alcotest.test_case "duplicate edge labels rejected" `Quick test_duplicate_labels_rejected;
    Alcotest.test_case "dual hypergraph of queries" `Quick test_dual_of_queries;
    Alcotest.test_case "rel tree: chain" `Quick test_rel_tree_chain;
    Alcotest.test_case "rel tree: cycle rejected" `Quick test_rel_tree_cycle;
    Alcotest.test_case "rel tree: self-join rejected" `Quick test_rel_tree_self_join;
    Alcotest.test_case "rel tree: two components" `Quick test_rel_tree_two_components;
    Alcotest.test_case "tuple graph: forest" `Quick test_tuple_graph_forest;
    Alcotest.test_case "tuple graph: cycle" `Quick test_tuple_graph_cycle;
    Alcotest.test_case "tuple graph: rooted depths and paths" `Quick test_rooted_depth_paths;
    Alcotest.test_case "pivot: positive case" `Quick test_find_pivot_positive;
    Alcotest.test_case "pivot: middle and none" `Quick test_find_pivot_negative;
    Alcotest.test_case "pivot: requires root paths" `Quick test_pivot_requires_root_path;
    prop_random_tree_forest;
  ]

(* ---- Fagin's full acyclicity hierarchy ---- *)

let test_acyclicity_hierarchy () =
  (* {ab, bc, abc}: beta-acyclic but NOT gamma-acyclic *)
  let beta_not_gamma = mk [ ("e1", [ "a"; "b" ]); ("e2", [ "b"; "c" ]); ("e3", [ "a"; "b"; "c" ]) ] in
  Alcotest.(check bool) "beta holds" true (H.Hgraph.is_beta_acyclic beta_not_gamma);
  Alcotest.(check bool) "gamma fails" false (H.Hgraph.is_gamma_acyclic beta_not_gamma);
  (* {ab, abc}: gamma-acyclic but NOT Berge-acyclic *)
  let gamma_not_berge = mk [ ("e1", [ "a"; "b" ]); ("e2", [ "a"; "b"; "c" ]) ] in
  Alcotest.(check bool) "gamma holds" true (H.Hgraph.is_gamma_acyclic gamma_not_berge);
  Alcotest.(check bool) "berge fails" false (H.Hgraph.is_berge_acyclic gamma_not_berge);
  (* a plain path: everything holds *)
  let path = mk [ ("e1", [ "a"; "b" ]); ("e2", [ "b"; "c" ]) ] in
  Alcotest.(check bool) "path berge" true (H.Hgraph.is_berge_acyclic path);
  Alcotest.(check bool) "path gamma" true (H.Hgraph.is_gamma_acyclic path);
  (* a triangle: nothing holds (except alpha fails too) *)
  let tri = mk [ ("e1", [ "a"; "b" ]); ("e2", [ "b"; "c" ]); ("e3", [ "a"; "c" ]) ] in
  Alcotest.(check bool) "triangle gamma" false (H.Hgraph.is_gamma_acyclic tri);
  Alcotest.(check bool) "triangle berge" false (H.Hgraph.is_berge_acyclic tri)

let test_hierarchy_implications () =
  (* berge => gamma => beta => alpha on a gallery of small hypergraphs *)
  let gallery =
    [
      mk [ ("e", [ "a" ]) ];
      mk [ ("e1", [ "a"; "b" ]); ("e2", [ "b"; "c" ]); ("e3", [ "c"; "d" ]) ];
      mk [ ("e1", [ "a"; "b"; "c" ]); ("e2", [ "c"; "d" ]) ];
      mk [ ("e1", [ "a"; "b" ]); ("e2", [ "a"; "b"; "c" ]) ];
      mk [ ("e1", [ "a"; "b" ]); ("e2", [ "b"; "c" ]); ("e3", [ "a"; "b"; "c" ]) ];
      fig3_q1; fig3_q2; fig3_q3;
    ]
  in
  List.iter
    (fun g ->
      let berge = H.Hgraph.is_berge_acyclic g in
      let gamma = H.Hgraph.is_gamma_acyclic g in
      let beta = H.Hgraph.is_beta_acyclic g in
      let alpha = H.Hgraph.is_acyclic g in
      Alcotest.(check bool) "berge => gamma" true ((not berge) || gamma);
      Alcotest.(check bool) "gamma => beta" true ((not gamma) || beta);
      Alcotest.(check bool) "beta => alpha" true ((not beta) || alpha))
    gallery

let hierarchy_suite =
  [
    Alcotest.test_case "fagin hierarchy: separating examples" `Quick test_acyclicity_hierarchy;
    Alcotest.test_case "fagin hierarchy: implications" `Quick test_hierarchy_implications;
  ]

let suite = suite @ hierarchy_suite
