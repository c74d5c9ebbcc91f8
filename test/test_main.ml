let () =
  Alcotest.run "deleprop"
    [
      ("relational", Test_relational.suite);
      ("cq", Test_cq.suite);
      ("hypergraph", Test_hypergraph.suite);
      ("setcover", Test_setcover.suite);
      ("lp", Test_lp.suite);
      ("core", Test_core.suite);
      ("solvers", Test_solvers.suite);
      ("hardness", Test_hardness.suite);
      ("examples", Test_examples.suite);
      ("landscape", Test_landscape.suite);
      ("phase3", Test_phase3.suite);
      ("phase4", Test_phase4.suite);
      ("fuzz", Test_fuzz.suite);
      ("system", Test_system.suite);
      ("phase5", Test_phase5.suite);
      ("phase6", Test_phase6.suite);
      ("phase8", Test_phase8.suite);
      ("frontend", Test_frontend.suite);
      ("matrix", Test_matrix.suite);
      ("polish", Test_polish.suite);
      ("arena", Test_arena.suite);
      ("engine", Test_engine.suite);
      ("resilience", Test_resilience.suite);
      ("decompose", Test_decompose.suite);
      ("shardcache", Test_shardcache.suite);
      ("tombstone", Test_tombstone.suite);
      ("rewarm", Test_rewarm.suite);
      ("crashcut", Test_crashcut.suite);
      ("compindex", Test_compindex.suite);
      ("splice", Test_decomp_splice.suite);
      ("exact", Test_exact.suite);
      ("build", Test_bulk_build.suite);
      ("join", Test_join.suite);
    ]
