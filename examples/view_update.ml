(* View update, both directions (§VI of the paper: deletion propagation is
   a special view update problem).

   An editor looks at a materialized catalog view and issues two kinds of
   feedback: "this row is wrong, remove it" (deletion propagation, the
   paper's core problem) and "this row is missing, it should be here"
   (insertion propagation, the classic view-update companion). Both are
   translated back to the source tables with minimum collateral change.

   Run with: dune exec examples/view_update.exe *)

module R = Relational
module D = Deleprop

let db () =
  R.Serial.instance_of_string
    {|
      rel Author(name*, journal*)
      Author(joe,  tkde)
      Author(john, tkde)
      Author(tom,  tkde)
      Author(john, tods)
      rel Journal(journal*, topic*, papers)
      Journal(tkde, xml,  30)
      Journal(tkde, cube, 30)
      Journal(tods, xml,  30)
    |}

let q = Cq.Parser.query_of_string "Catalog(A, J, T) :- Author(A, J), Journal(J, T, N)"

let () =
  let db = db () in
  let problem = D.Problem.make ~db ~queries:[ q ] ~deletions:[] () in
  Format.printf "--- the catalog view ---@.";
  R.Tuple.Set.iter
    (fun t -> Format.printf "  %a@." R.Tuple.pp t)
    (Cq.Eval.evaluate db q);

  (* 1. DELETE: (john, tkde, xml) is wrong *)
  Format.printf "@.=== editor: remove (john, tkde, xml) ===@.";
  let del_problem =
    D.Problem.make ~db ~queries:[ q ]
      ~deletions:[ ("Catalog", [ R.Tuple.strs [ "john"; "tkde"; "xml" ] ]) ]
      ()
  in
  let prov = D.Provenance.build del_problem in
  let best = List.hd (D.Portfolio.solutions (D.Arena.build prov)) in
  Format.printf "portfolio winner: %s (%.2f ms)@." best.D.Solution.algorithm
    best.D.Solution.elapsed_ms;
  Format.printf "%a@." D.Explain.pp (D.Explain.explain prov best.D.Solution.deleted);

  (* 2. INSERT: (alice, tkde, xml) is missing *)
  Format.printf "@.=== editor: (alice, tkde, xml) should be in the catalog ===@.";
  (match
     D.Insertion.solve problem ~query:"Catalog"
       ~target:(R.Tuple.strs [ "alice"; "tkde"; "xml" ])
   with
  | Error e -> Format.printf "insertion failed: %a@." D.Insertion.pp_error e
  | Ok r ->
    Format.printf "insert %d source tuple(s):@."
      (R.Stuple.Set.cardinal r.D.Insertion.insertions);
    R.Stuple.Set.iter (fun t -> Format.printf "  + %a@." R.Stuple.pp t) r.D.Insertion.insertions;
    Format.printf "collateral new view tuples (%g):@." r.D.Insertion.side_effect;
    D.Vtuple.Set.iter
      (fun vt -> Format.printf "  ~ %a@." D.Vtuple.pp vt)
      r.D.Insertion.new_views);

  (* 3. INSERT needing a brand-new journal: two insertions, no collateral *)
  Format.printf "@.=== editor: (bob, jacm, theory) should be in the catalog ===@.";
  match
    D.Insertion.solve problem ~query:"Catalog"
      ~target:(R.Tuple.strs [ "bob"; "jacm"; "theory" ])
  with
  | Error e -> Format.printf "insertion failed: %a@." D.Insertion.pp_error e
  | Ok r ->
    Format.printf "insert %d source tuple(s):@."
      (R.Stuple.Set.cardinal r.D.Insertion.insertions);
    R.Stuple.Set.iter (fun t -> Format.printf "  + %a@." R.Stuple.pp t) r.D.Insertion.insertions;
    Format.printf "collateral new view tuples: %g (fresh values cannot join)@."
      r.D.Insertion.side_effect
