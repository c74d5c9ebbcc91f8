(* Decomposable solutions: split-aware fragment seeding on every cache
   tier. Deterministic instances drive each restriction path — the
   forest-DP tree replay (including its cost discount) and the
   approximate identity-with-rewrite — and assert the spliced answer
   bit-identical to a cache-less solve; negative gadgets pin the guards
   (a forest entry without its tree, touched candidate neighborhood,
   drifted √‖V‖ bucket); a lockstep QCheck stream fuzzes the invariant over
   mixed delete/insert/solve rounds; and a recovery from an image that
   trails the journal answers as the live session. *)

open Util
module R = Relational
module D = Deleprop
module S = Engine.Snapshot

let request_exn = Test_shardcache.request_exn
let check_decisions_equal = Test_shardcache.check_decisions_equal
let check_solutions_equal = Test_engine.check_solutions_equal
let seeds = QCheck2.Gen.int_range 0 10_000

let tier_counts eng =
  let s = Engine.stats eng in
  ( s.Engine.fragment_reuses_exact,
    s.Engine.fragment_reuses_forest,
    s.Engine.fragment_reuses_approx )

let with_paths f =
  let jpath = Filename.temp_file "deleprop_splice" ".journal" in
  let spath = jpath ^ ".snap" in
  Fun.protect
    ~finally:(fun () ->
      Engine.Journal.remove jpath;
      S.remove spath;
      try Sys.remove (spath ^ ".tmp") with Sys_error _ -> ())
    (fun () -> f jpath spath)

let load_exn tag spath =
  match S.load spath with
  | Ok (t, dropped) -> (t, dropped)
  | Error w ->
    Alcotest.fail (Format.asprintf "%s: load failed: %a" tag S.pp_warning w)

(* ---- forest tier: the recorded DP tree replays onto the fragment ----

   A hub-rooted tree — every view's witness passes through H(k1), so
   any deletion that kills a view meets the ΔV's candidate set. The
   identity tiers must refuse such a fragment; only the forest tier's
   tree replay, which discounts killed preserved weight explicitly,
   can carry the answer across. [exact_threshold = 0] closes the brute
   tier, so the component classifies [Exact_forest].

       H(k1) ─┬─ M(k1,a1) ─── L(a1,b1)
              └─ M(k1,a2) ─┬─ L(a2,b2)
                           └─ L(a2,b3)

   ΔV = QM(k1,a1); the optimum deletes M(k1,a1) at cost 1 (it also
   kills QL(k1,a1,b1)). Pruning L(a2,b3) loses a leaf on the uncut
   branch — values unchanged, slacks shrink; pruning L(a1,b1) loses
   the endpoint *under the recorded cut*, so the replayed cost drops
   to 0. Every splice must be bit-identical to a cache-less solve. *)

let hub_db () =
  R.Serial.instance_of_string
    {|rel H(K*)
H(k1)
rel M(K*, A*)
M(k1, a1)
M(k1, a2)
rel L(A*, B*)
L(a1, b1)
L(a2, b2)
L(a2, b3)|}

let hub_queries () =
  Cq.Parser.queries_of_string
    {|QM(K, A) :- H(K), M(K, A)
QL(K, A, B) :- H(K), M(K, A), L(A, B)|}

let qm () = [ D.Delta_request.make ~view:"QM" [ R.Tuple.strs [ "k1"; "a1" ] ] ]

let mk_hub cache =
  Engine.create ~domains:1 ~exact_threshold:0 ~shard_cache:cache
    (hub_db ()) (hub_queries ())

let del eng rel vs = Engine.delete eng (R.Stuple.Set.singleton (st rel vs))

let test_forest_splice () =
  let eng = mk_hub 512 in
  let fresh = mk_hub 0 in
  let round tag =
    let p = request_exn tag eng (qm ()) in
    let f = request_exn tag fresh (qm ()) in
    check_solutions_equal (tag ^ " ≡ fresh") p.Engine.solutions
      f.Engine.solutions;
    check_decisions_equal (tag ^ " decisions") p.Engine.shards f.Engine.shards;
    p
  in
  let p = round "warm" in
  (* the premise: with brute closed, the hub tree solves on the forest
     tier at cost 1 *)
  (match p.Engine.shards with
  | [ s ] ->
    Alcotest.(check bool) "warm shard is Exact_forest" true
      (s.D.Planner.classification = D.Planner.Exact_forest);
    Alcotest.(check (float 0.0)) "warm cost" 1.0 s.D.Planner.cost
  | _ -> Alcotest.fail "expected one hub shard");
  del eng "L" [ "a2"; "b3" ];
  del fresh "L" [ "a2"; "b3" ];
  let p = round "post-prune" in
  Alcotest.(check int) "the seeded fragment splices" 1 p.Engine.shards_cached;
  let ex, fo, ap = tier_counts eng in
  Alcotest.(check int) "counted on the forest tier" 1 fo;
  Alcotest.(check int) "not on the exact tier" 0 ex;
  Alcotest.(check int) "not on the approximate tier" 0 ap;
  (* splicing again off the seeded entry keeps counting *)
  let _ = round "re-splice" in
  let _, fo, _ = tier_counts eng in
  Alcotest.(check int) "re-splice counts again" 2 fo;
  (* lose the endpoint under the recorded cut: the chained restriction
     discounts the frontier's killed weight, so the spliced answer's
     cost drops to 0 — still the same deletion, still bit-identical *)
  del eng "L" [ "a1"; "b1" ];
  del fresh "L" [ "a1"; "b1" ];
  let p = round "post-discount" in
  Alcotest.(check int) "the re-seeded fragment splices" 1
    p.Engine.shards_cached;
  let _, fo, _ = tier_counts eng in
  Alcotest.(check int) "chained restriction counts" 3 fo;
  (match p.Engine.shards with
  | [ s ] ->
    Alcotest.(check (float 0.0)) "discounted cost" 0.0 s.D.Planner.cost
  | _ -> Alcotest.fail "expected one hub shard");
  Engine.close eng;
  Engine.close fresh

(* the forest tier's tree guard: a forest entry decoded without its
   recorded tree still splices a clean component identically, but
   must never seed a fragment — the fragment re-solves, still
   bit-identically *)
let test_forest_treeless_guard () =
  with_paths (fun jpath spath ->
      let mk ?(recover = false) cache =
        Engine.create ~domains:1 ~exact_threshold:0
          ~shard_cache:cache ~journal:jpath ~snapshot:spath ~snapshot_every:1
          ~recover (hub_db ()) (hub_queries ())
      in
      let eng = mk 512 in
      ignore (request_exn "warm" eng (qm ()));
      (* a journalled round forces a full image holding the entry *)
      Engine.insert eng (st "L" [ "a9"; "b9" ]);
      Engine.close eng;
      (* strip the recorded trees from the written image *)
      let t, _ = load_exn "doctor" spath in
      S.write spath
        {
          t with
          S.entries =
            List.map
              (fun (f, e) -> (f, { e with D.Planner.e_decomposition = [] }))
              t.S.entries;
        };
      let eng = mk ~recover:true 512 in
      let fresh = mk_hub 0 in
      Engine.insert fresh (st "L" [ "a9"; "b9" ]);
      ignore (request_exn "rewarm" eng (qm ()));
      ignore (request_exn "rewarm" fresh (qm ()));
      del eng "L" [ "a2"; "b3" ];
      del fresh "L" [ "a2"; "b3" ];
      let p = request_exn "guarded" eng (qm ()) in
      let f = request_exn "guarded" fresh (qm ()) in
      Alcotest.(check int) "treeless entry never seeds" 0
        p.Engine.shards_cached;
      let _, fo, _ = tier_counts eng in
      Alcotest.(check int) "no forest reuse" 0 fo;
      check_solutions_equal "guarded ≡ fresh" p.Engine.solutions
        f.Engine.solutions;
      Engine.close eng;
      Engine.close fresh)

(* ---- approximate tier: identity restriction under the bucket guard --

   A triangle (RA-RB-RC via Q1/Q2/Q3) keeps the component off the
   forest tier; a tail (RD, RE) hangs off it through Q4/Q5. With
   [exact_threshold = 0] the component classifies [Approximate].
   Deleting RE(w1, v1) prunes the tail's end — away from the Q1
   candidates, √‖V‖ bucket intact (⌊√5⌋ = ⌊√4⌋ = 2) — so the fragment
   inherits the portfolio answer identically. *)

let tri_db () =
  R.Serial.instance_of_string
    {|rel RA(X*, Z*)
RA(x1, z1)
rel RB(X*, Y*)
RB(x1, y1)
rel RC(Y*, Z*)
RC(y1, z1)
rel RD(Z*, W*)
RD(z1, w1)
rel RE(W*, V*)
RE(w1, v1)|}

let tri_queries () =
  Cq.Parser.queries_of_string
    {|Q1(X, Z, Y) :- RA(X, Z), RB(X, Y)
Q2(X, Y, Z) :- RB(X, Y), RC(Y, Z)
Q3(Y, Z, X) :- RC(Y, Z), RA(X, Z)
Q4(Y, Z, W) :- RC(Y, Z), RD(Z, W)
Q5(Z, W, V) :- RD(Z, W), RE(W, V)|}

let q1 () =
  [ D.Delta_request.make ~view:"Q1" [ R.Tuple.strs [ "x1"; "z1"; "y1" ] ] ]

let mk_tri cache =
  Engine.create ~domains:1 ~exact_threshold:0 ~shard_cache:cache
    (tri_db ()) (tri_queries ())

let test_approx_splice () =
  let eng = mk_tri 512 in
  let fresh = mk_tri 0 in
  let round tag =
    let p = request_exn tag eng (q1 ()) in
    let f = request_exn tag fresh (q1 ()) in
    check_solutions_equal (tag ^ " ≡ fresh") p.Engine.solutions
      f.Engine.solutions;
    check_decisions_equal (tag ^ " decisions") p.Engine.shards f.Engine.shards;
    p
  in
  let p = round "warm" in
  List.iter
    (fun (s : D.Planner.shard_decision) ->
      if s.D.Planner.bad > 0 then
        Alcotest.(check bool) "warm shard is Approximate" true
          (s.D.Planner.classification = D.Planner.Approximate))
    p.Engine.shards;
  del eng "RE" [ "w1"; "v1" ];
  del fresh "RE" [ "w1"; "v1" ];
  let p = round "post-prune" in
  Alcotest.(check int) "the seeded fragment splices" 1 p.Engine.shards_cached;
  let ex, fo, ap = tier_counts eng in
  Alcotest.(check int) "counted on the approximate tier" 1 ap;
  Alcotest.(check int) "not on the exact tiers" 0 (ex + fo);
  Engine.close eng;
  Engine.close fresh

(* the bucket guard: four star views on RW push the parent component to
   9 view tuples (bucket ⌊√9⌋ = 3); pruning the stars drops the
   fragment to 5 (bucket 2) — an approximate answer solved under the
   wider pruning threshold must NOT seed, and the fragment re-solves
   bit-identically *)
let star_db () =
  R.Serial.instance_of_string
    {|rel RA(X*, Z*)
RA(x1, z1)
rel RB(X*, Y*)
RB(x1, y1)
rel RC(Y*, Z*)
RC(y1, z1)
rel RD(Z*, W*)
RD(z1, w1)
rel RE(W*, V*)
RE(w1, v1)
rel RS1(W*, P*)
RS1(w1, p1)
rel RS2(W*, P*)
RS2(w1, p2)
rel RS3(W*, P*)
RS3(w1, p3)
rel RS4(W*, P*)
RS4(w1, p4)|}

let star_queries () =
  Cq.Parser.queries_of_string
    {|Q1(X, Z, Y) :- RA(X, Z), RB(X, Y)
Q2(X, Y, Z) :- RB(X, Y), RC(Y, Z)
Q3(Y, Z, X) :- RC(Y, Z), RA(X, Z)
Q4(Y, Z, W) :- RC(Y, Z), RD(Z, W)
Q5(Z, W, V) :- RD(Z, W), RE(W, V)
QS1(Z, W, P) :- RD(Z, W), RS1(W, P)
QS2(Z, W, P) :- RD(Z, W), RS2(W, P)
QS3(Z, W, P) :- RD(Z, W), RS3(W, P)
QS4(Z, W, P) :- RD(Z, W), RS4(W, P)|}

let test_approx_bucket_guard () =
  let mk cache =
    Engine.create ~domains:1 ~exact_threshold:0 ~shard_cache:cache
      (star_db ()) (star_queries ())
  in
  let eng = mk 512 in
  let fresh = mk 0 in
  ignore (request_exn "warm" eng (q1 ()));
  let stars =
    R.Stuple.Set.of_list
      [
        st "RS1" [ "w1"; "p1" ]; st "RS2" [ "w1"; "p2" ];
        st "RS3" [ "w1"; "p3" ]; st "RS4" [ "w1"; "p4" ];
      ]
  in
  Engine.delete eng stars;
  Engine.delete fresh stars;
  let p = request_exn "drifted" eng (q1 ()) in
  let f = request_exn "drifted" fresh (q1 ()) in
  Alcotest.(check int) "drifted bucket never splices" 0 p.Engine.shards_cached;
  let ex, fo, ap = tier_counts eng in
  Alcotest.(check int) "no reuse on any tier" 0 (ex + fo + ap);
  check_solutions_equal "drifted ≡ fresh" p.Engine.solutions f.Engine.solutions;
  Engine.close eng;
  Engine.close fresh

(* ---- the lockstep stream property ----

   Drive one mixed delete/insert/solve stream through a cached planner
   engine and a cache-less twin, both with the brute tier closed so
   every component answers on the forest or approximate tier — the
   tiers the decomposition machinery seeds. Bit-identical ranked
   solutions and shard decisions at every step, whatever mix of
   splits, seedings, refusals and re-solves the stream produces. *)
let check_lockstep_stream ?(scale = 6) seed =
  let rng = rng seed in
  let { Workload.Forest_family.problem = p; _ } =
    Workload.Forest_family.generate ~rng
      {
        Workload.Forest_family.default with
        num_relations = 4;
        tuples_per_relation = scale;
        num_queries = 3;
        deletion_fraction = 0.0;
      }
  in
  let queries = p.D.Problem.queries in
  let mk cache =
    Engine.create ~domains:1 ~exact_threshold:0 ~shard_cache:cache
      p.D.Problem.db queries
  in
  let eng = mk 512 in
  let fresh = mk 0 in
  for step = 1 to 10 do
    let tag = Printf.sprintf "splice seed %d step %d" seed step in
    let deletes =
      match R.Instance.stuples (Engine.db eng) with
      | [] -> R.Stuple.Set.empty
      | sts ->
        List.init
          (1 + Random.State.int rng 2)
          (fun _ -> List.nth sts (Random.State.int rng (List.length sts)))
        |> R.Stuple.Set.of_list
    in
    let delta = D.Delta.make ~deletes () in
    let a_e = Engine.apply_delta eng delta in
    let a_f = Engine.apply_delta fresh delta in
    Alcotest.check Util.stuple_set (tag ^ ": same deletes applied")
      a_f.D.Delta.deletes a_e.D.Delta.deletes;
    let prov_e, _ = Engine.index eng in
    match Test_engine.random_requests rng prov_e with
    | [] -> ()
    | reqs ->
      let p_e = request_exn tag eng reqs in
      let p_f = request_exn tag fresh reqs in
      check_solutions_equal (tag ^ " solutions") p_e.Engine.solutions
        p_f.Engine.solutions;
      check_decisions_equal (tag ^ " decisions") p_e.Engine.shards
        p_f.Engine.shards
  done;
  (* per-tier counters always recompose the total *)
  let s = Engine.stats eng in
  Alcotest.(check int) "tier counters sum to the total"
    s.Engine.fragment_reuses
    (s.Engine.fragment_reuses_exact + s.Engine.fragment_reuses_forest
   + s.Engine.fragment_reuses_approx);
  Engine.close eng;
  Engine.close fresh;
  true

let prop_lockstep =
  qcheck ~count:15 "splice: cached ≡ cache-less over mixed streams" seeds
    (fun seed -> check_lockstep_stream seed)

(* ---- recovery from an image that trails the journal ---- *)

(* images are written every [snapshot_every] records and nothing in
   between: two records past the image at record 4, recovery applies
   the image's baseline, installs it and folds the two-record tail — a
   delete that splits a memoized component and an insert — into one
   delta, and the first recovered round answers as the live session *)
let test_trailing_image () =
  with_paths (fun jpath spath ->
      let mk ?(recover = false) () =
        Engine.create ~domains:1 ~journal:jpath ~snapshot:spath
          ~snapshot_every:4 ~recover
          (Test_compindex.split_db ())
          (Test_compindex.split_queries ())
      in
      let reqs =
        Test_compindex.q4 [ [ "Ann"; "J1"; "XML" ]; [ "Bob"; "J2"; "CUBE" ] ]
      in
      let eng = mk () in
      ignore (request_exn "warm" eng reqs);
      (* records 1-4: the 4th crosses [snapshot_every] — a full image *)
      del eng "T1" [ "Dan"; "J4" ];
      Engine.insert eng (st "T1" [ "Dan"; "J4" ]);
      del eng "T1" [ "Dan"; "J4" ];
      Engine.insert eng (st "T1" [ "Dan"; "J4" ]);
      (* records 5-6 reach the journal only *)
      ignore (request_exn "re-warm" eng reqs);
      del eng "T4" [ "ICDE"; "Rome" ];
      ignore (request_exn "post-split" eng reqs);
      Engine.insert eng (st "T1" [ "Eve"; "J4" ]);
      let t, dropped = load_exn "image" spath in
      Alcotest.(check int) "nothing dropped" 0 dropped;
      Alcotest.(check int) "the image trails the journal" 4 t.S.position;
      (* the uninterrupted answer to one more round *)
      let p_live = request_exn "live round" eng reqs in
      Engine.close eng;
      let eng' = mk ~recover:true () in
      let s0 = Engine.stats eng' in
      (match s0.Engine.snapshot with
      | Engine.Warm _ -> ()
      | s ->
        Alcotest.fail
          (Format.asprintf "expected warm recovery, got %a"
             Engine.pp_snapshot_status s));
      Alcotest.(check int) "the whole journal is recovered" 6
        s0.Engine.recovered_records;
      let p_rec = request_exn "recovered round" eng' reqs in
      check_solutions_equal "recovered ≡ uninterrupted" p_rec.Engine.solutions
        p_live.Engine.solutions;
      check_decisions_equal "recovered decisions" p_rec.Engine.shards
        p_live.Engine.shards;
      Engine.close eng')

let suite =
  [
    Alcotest.test_case "forest tier: spliced fragment ≡ fresh solve" `Quick
      test_forest_splice;
    Alcotest.test_case "forest tier: a treeless entry never seeds" `Quick
      test_forest_treeless_guard;
    Alcotest.test_case "approx tier: spliced fragment ≡ fresh solve" `Quick
      test_approx_splice;
    Alcotest.test_case "approx tier: drifted bucket never seeds" `Quick
      test_approx_bucket_guard;
    prop_lockstep;
    Alcotest.test_case "engine recovers from a trailing image" `Quick
      test_trailing_image;
  ]
