(* Grand tour: a retail warehouse end to end.

   Four source tables, three analyst views, and one full maintenance
   session: classify the query set, look at instance statistics, take
   expert feedback on two views at once, compare objectives (view
   side-effect, balanced, source side-effect, bounded), apply the chosen
   plan on the materialized-view manager, and finally patch a missing
   answer by insertion propagation.

   Run with: dune exec examples/warehouse.exe *)

module R = Relational
module D = Deleprop

let db () =
  R.Serial.instance_of_string
    {|
      rel Product(sku*, category)
      Product(p1, bikes)
      Product(p2, bikes)
      Product(p3, tools)
      Product(p4, tools)
      rel Stock(sku*, site*, qty)
      Stock(p1, berlin, 10)
      Stock(p2, berlin, 0)
      Stock(p2, lyon,   5)
      Stock(p3, lyon,   7)
      Stock(p4, berlin, 2)
      rel Site(site*, region)
      Site(berlin, eu-central)
      Site(lyon,   eu-west)
      rel Price(sku*, amount)
      Price(p1, 900)
      Price(p2, 1100)
      Price(p3, 40)
      Price(p4, 60)
    |}

let queries =
  Cq.Parser.queries_of_string
    {|
      Qavail(SKU, CAT, SITE, QTY) :- Product(SKU, CAT), Stock(SKU, SITE, QTY)
      Qregion(SKU, SITE, REG) :- Stock(SKU, SITE, QTY), Site(SITE, REG)
      Qprice(SKU, CAT, AMT) :- Product(SKU, CAT), Price(SKU, AMT)
    |}

let () =
  let db = db () in
  let schema = R.Instance.schema db in

  Format.printf "=== 1. classification ===@.";
  List.iter
    (fun (q : Cq.Query.t) ->
      Format.printf "%s: %a@." q.name Cq.Classify.pp_profile (Cq.Classify.profile schema q))
    queries;
  Format.printf "forest case: %b@." (Hypergraph.Dual.is_forest_case queries);

  (* expert feedback: p2 was discontinued — its berlin availability row
     and its price row are both wrong *)
  let problem =
    D.Problem.make ~db ~queries
      ~deletions:
        [
          ("Qavail", [ R.Tuple.of_list
                         [ R.Value.str "p2"; R.Value.str "bikes"; R.Value.str "berlin";
                           R.Value.int 0 ] ]);
          ("Qprice", [ R.Tuple.of_list
                         [ R.Value.str "p2"; R.Value.str "bikes"; R.Value.int 1100 ] ]);
        ]
      ()
  in
  let prov = D.Provenance.build problem in

  Format.printf "@.=== 2. instance statistics ===@.%a@." D.Stats.pp (D.Stats.compute prov);

  Format.printf "@.=== 3. solver portfolio ===@.";
  let solutions = D.Portfolio.solutions (D.Arena.build prov) in
  List.iter
    (fun (s : D.Solution.t) ->
      Format.printf "  %-12s cost %-4g (%.2f ms)@." s.D.Solution.algorithm
        (D.Solution.cost s) s.D.Solution.elapsed_ms)
    solutions;
  let best = List.hd solutions in
  Format.printf "winner: %s@.%a@." best.D.Solution.algorithm D.Explain.pp
    (D.Explain.explain prov best.D.Solution.deleted);

  Format.printf "@.=== 4. objectives compared ===@.";
  let bal = D.Balanced.solve_exact prov in
  Format.printf "balanced optimum: %g (repairs? %b)@."
    bal.D.Balanced.outcome.D.Side_effect.balanced_cost
    bal.D.Balanced.outcome.D.Side_effect.feasible;
  (match D.Source_side_effect.solve_exact prov with
  | Some s ->
    Format.printf "source optimum: %g tuple(s), view damage %g@."
      s.D.Source_side_effect.source_cost s.D.Source_side_effect.outcome.D.Side_effect.cost
  | None -> ());
  List.iter
    (fun (k, (r : D.Bounded.result)) ->
      Format.printf "budget k=%d: side-effect %g@." k r.D.Bounded.outcome.D.Side_effect.cost)
    (D.Bounded.frontier ~slack:2 prov);

  Format.printf "@.=== 5. apply on the view manager ===@.";
  let mv = D.Matview.create db queries in
  let mv = D.Matview.delete mv best.D.Solution.deleted in
  List.iter
    (fun (q : Cq.Query.t) ->
      Format.printf "%s now has %d tuples@." q.name
        (R.Tuple.Set.cardinal (D.Matview.view mv q.name)))
    queries;

  Format.printf "@.=== 6. a missing answer ===@.";
  let fresh_problem = D.Problem.make ~db:(D.Matview.db mv) ~queries ~deletions:[] () in
  match
    D.Insertion.solve fresh_problem ~query:"Qavail"
      ~target:(R.Tuple.of_list
                 [ R.Value.str "p3"; R.Value.str "tools"; R.Value.str "berlin"; R.Value.int 9 ])
  with
  | Ok r ->
    R.Stuple.Set.iter (fun t -> Format.printf "  + %a@." R.Stuple.pp t) r.D.Insertion.insertions;
    Format.printf "  collateral new answers: %g@." r.D.Insertion.side_effect
  | Error e -> Format.printf "  insertion failed: %a@." D.Insertion.pp_error e
