(* Query-oriented data cleaning (§V of the paper, in the style of QOCO).

   A dirty HR database is probed with several analyst queries; a domain
   expert flags wrong answers in each query result. The whole batch of
   feedback is propagated at once with minimum view side-effect — the
   batch guarantee the paper contributes, avoiding the order-dependence
   of per-answer processing.

   Two rounds:
   - complete feedback: every symptom of the errors is flagged, and the
     propagation is side-effect free (the paper: "if the views and view
     deletions are given completely, we can always find the view
     side-effect free solutions");
   - incomplete feedback: one symptom is missed, and the best batch
     repair must damage exactly one good answer.

   Run with: dune exec examples/data_cleaning.exe *)

module R = Relational
module D = Deleprop

let db () =
  (* the dirty bits: dana was mis-assigned to sales, and the sales
     department was mis-located in berlin *)
  R.Serial.instance_of_string
    {|
      rel Emp(name*, dept)
      Emp(alice, eng)
      Emp(bob,   eng)
      Emp(carol, sales)
      Emp(dana,  sales)      # wrong: dana is in hr
      rel Dept(dname*, city)
      Dept(eng,   paris)
      Dept(sales, berlin)    # wrong: sales is in madrid
      Dept(hr,    madrid)
      rel Badge(name*, level)
      Badge(alice, 3)
      Badge(bob,   1)
      Badge(carol, 2)
      Badge(dana,  2)
    |}

let queries =
  Cq.Parser.queries_of_string
    {|
      Qloc(N, DD, C) :- Emp(N, DD), Dept(DD, C)
      Qsec(N, DD, L) :- Emp(N, DD), Badge(N, L)
    |}

let show_repair label problem =
  let prov = D.Provenance.build problem in
  let opt = Option.get (D.Brute.solve prov) in
  Format.printf "@.%s@.optimal batch repair (side-effect %g):@." label
    opt.D.Brute.outcome.D.Side_effect.cost;
  R.Stuple.Set.iter
    (fun t -> Format.printf "  remove %a@." R.Stuple.pp t)
    opt.D.Brute.deletion;
  let lost = Lazy.force opt.D.Brute.outcome.D.Side_effect.side_effect in
  if not (D.Vtuple.Set.is_empty lost) then begin
    Format.printf "collateral damage:@.";
    D.Vtuple.Set.iter (fun vt -> Format.printf "  loses %a@." D.Vtuple.pp vt) lost
  end;
  let greedy = D.Single_query.solve_greedy_multi (D.Arena.build prov) in
  Format.printf "per-answer greedy baseline: side-effect %g@."
    greedy.D.Single_query.outcome.D.Side_effect.cost;
  opt

let () =
  let db = db () in
  Format.printf "--- analyst views over the dirty database ---@.";
  List.iter
    (fun (q : Cq.Query.t) ->
      Format.printf "%s:@." q.name;
      R.Tuple.Set.iter (fun t -> Format.printf "  %a@." R.Tuple.pp t) (Cq.Eval.evaluate db q))
    queries;

  (* round 1: the expert catches every symptom of the two errors *)
  let complete =
    D.Problem.make ~db ~queries
      ~deletions:
        [
          ("Qloc", [ R.Tuple.strs [ "dana"; "sales"; "berlin" ];
                     R.Tuple.strs [ "carol"; "sales"; "berlin" ] ]);
          ("Qsec", [ R.Tuple.of_list
                       [ R.Value.str "dana"; R.Value.str "sales"; R.Value.int 2 ] ]);
        ]
      ()
  in
  let opt = show_repair "=== round 1: complete feedback (all 3 symptoms flagged) ===" complete in

  (* round 2: the expert misses dana's badge symptom; now any repair of
     dana's assignment also kills her unflagged (still-listed) badge
     answer, or carol's unflagged location — minimum side-effect 1 *)
  let incomplete =
    D.Problem.make ~db ~queries
      ~deletions:[ ("Qloc", [ R.Tuple.strs [ "dana"; "sales"; "berlin" ] ]) ]
      ()
  in
  ignore (show_repair "=== round 2: incomplete feedback (1 of 3 symptoms flagged) ===" incomplete);

  Format.printf
    "@.Complete multi-view feedback admits a side-effect-free batch repair;@.\
     incomplete feedback forces a minimum-damage recommendation instead —@.\
     exactly the QOCO-style workflow of §V.@.";

  let repaired = R.Instance.delete db opt.D.Brute.deletion in
  Format.printf "@.--- repaired database (round 1 plan) ---@.%a@." R.Instance.pp repaired
