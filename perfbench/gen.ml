(* Deterministic inputs for the session replay benchmark.

   Everything a session sees — the database, the query set and the round
   script — is a pure function of the workload name and the seed, built
   here before any session starts. The query sets are fixed per family;
   the data and the scripts come from the seed. [digest] hashes a whole
   script, so a repeated seed can be shown to give the same inputs. *)

module R = Relational
module D = Deleprop

type round = {
  delta : D.Delta.t;  (* committed before the request; empty on reads *)
  requests : D.Delta_request.t list;  (* the proposed ΔV; [] = commit only *)
  removed : R.Stuple.Set.t;
      (* tuples of the generated database absent once the round has
         committed — what the answer check evaluates against *)
}

type script = {
  db : R.Instance.t;
  queries : Cq.Query.t list;
  warm : round array;  (* replayed during set-up (restart_tail: the seeding) *)
  tail : round array;  (* restart_tail: commits made without the snapshot *)
  rounds : round array;  (* the measured rounds *)
}

let rng ~seed tag = Random.State.make [| seed; tag |]

(* view facts grouped into one request per view, in first-seen order *)
let requests_of (vts : (string * R.Tuple.t) list) =
  let views = List.sort_uniq String.compare (List.map fst vts) in
  List.map
    (fun v ->
      D.Delta_request.make ~view:v
        (List.filter_map (fun (q, t) -> if q = v then Some t else None) vts))
    views

let int_of (v : R.Value.t) = match v with R.Value.Int k -> k | R.Value.Str _ -> -1

let shuffle g a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int g (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* ---- pivot forests (whatif_skew, edit_churn, restart_tail) ----

   Depth-3 chains R0 <- R1 <- R2 from [Workload.Pivot_family]; every
   R0 tuple roots one component. Two fixed queries: the depth-1 path
   and the depth-2 path. A component's standing ΔV is every one of its
   Q1 answers plus each Q2 answer with probability 1/2. *)

let pivot_queries =
  List.map Cq.Parser.query_of_string
    [
      "Q1(K1, A1, K0, A0) :- R1(K1, A1, K0), R0(K0, A0)";
      "Q2(K2, A2, K1, A1, K0, A0) :- R2(K2, A2, K1), R1(K1, A1, K0), R0(K0, A0)";
    ]

type component = {
  dv : (string * R.Tuple.t * R.Stuple.Set.t) list;  (* standing ΔV with witnesses *)
  members : R.Stuple.t array;  (* non-root source tuples, sorted *)
}

let pivot_db ~seed ~roots =
  let spec =
    {
      Workload.Pivot_family.depth = 3;
      num_roots = roots;
      tuples_per_relation = 6 * roots;
      num_queries = 1;
      deletion_fraction = 0.0;
    }
  in
  (Workload.Pivot_family.generate ~rng:(rng ~seed 1) spec).D.Problem.db

(* The components holding at least one Q1 answer; position [i] is Zipf
   rank [i]. *)
let pivot_components ~seed db =
  let g = rng ~seed 2 in
  let by_root = Hashtbl.create 1024 in
  List.iter
    (fun (q : Cq.Query.t) ->
      List.iter
        (fun (ans, w) ->
          let root = int_of (R.Tuple.get ans (R.Tuple.arity ans - 2)) in
          let prev = try Hashtbl.find by_root root with Not_found -> [] in
          Hashtbl.replace by_root root ((q.Cq.Query.name, ans, Cq.Eval.witness_set w) :: prev))
        (Cq.Eval.matches db q))
    pivot_queries;
  let roots = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) by_root []) in
  let comps =
    List.filter_map
      (fun root ->
        let views =
          List.sort
            (fun (q, a, _) (q', a', _) ->
              match String.compare q q' with 0 -> R.Tuple.compare a a' | c -> c)
            (Hashtbl.find by_root root)
        in
        let dv = List.filter (fun (q, _, _) -> q = "Q1" || Random.State.bool g) views in
        let members =
          List.fold_left
            (fun acc (_, _, w) ->
              R.Stuple.Set.union acc (R.Stuple.Set.filter (fun st -> st.R.Stuple.rel <> "R0") w))
            R.Stuple.Set.empty views
        in
        (* every Q1 answer is requested, so the optimum deletes every R1
           tuple (or the root) and kills every Q2 answer: its cost is the
           Q2 answers left out of the ΔV *)
        let cost = List.length (List.filter (fun (q, _, _) -> q = "Q2") views)
                   - List.length (List.filter (fun (q, _, _) -> q = "Q2") dv) in
        if List.exists (fun (q, _, _) -> q = "Q1") dv then
          Some (cost, Random.State.bits g, { dv; members = Array.of_list (R.Stuple.Set.elements members) })
        else None)
      roots
  in
  (* Stratified ranks: sorted by optimal cost, the components split into
     32 strata, and consecutive ranks visit the strata in bit-reversed
     order, so every run of eight ranks spans cheap to dear. Hot ranks
     then mix cheap and dear components alike on every seed, and the
     per-round cost does not hinge on which few components the seed made
     hot. *)
  let sorted =
    List.sort (fun (c, b, _) (c', b', _) -> compare (c, b) (c', b')) comps
    |> List.map (fun (_, _, c) -> c)
    |> Array.of_list
  in
  let m = Array.length sorted and bits = 5 in
  let n = 1 lsl bits in
  let strata = Array.init n (fun s -> Array.sub sorted (s * m / n) (((s + 1) * m / n) - (s * m / n))) in
  Array.iter (shuffle g) strata;
  let reversed k =
    let r = ref 0 in
    for b = 0 to bits - 1 do
      if k land (1 lsl b) <> 0 then r := !r lor (1 lsl (bits - 1 - b))
    done;
    !r
  in
  let next = Array.make n 0 in
  let out = ref [] and taken = ref 0 and s = ref 0 in
  while !taken < m do
    let k = reversed (!s mod n) in
    if next.(k) < Array.length strata.(k) then begin
      out := strata.(k).(next.(k)) :: !out;
      next.(k) <- next.(k) + 1;
      incr taken
    end;
    incr s
  done;
  Array.of_list (List.rev !out)

(* the component's ΔV answers that survive with [gone] deleted *)
let surviving c gone =
  List.filter_map
    (fun (q, t, w) -> if R.Stuple.Set.disjoint w gone then Some (q, t) else None)
    c.dv

(* A victim chain: each commit deletes one non-root tuple of the next
   picked component and re-inserts the previous victim, so exactly one
   generated tuple is missing after every commit. The victim is redrawn
   while it repeats the previous one or would leave the component no
   requested answer to propose. Returns the commits, each with the
   request [propose] builds (none without it), and the last victim. *)
let chain n g comps ~prev ~pick ~propose =
  let prev = ref prev in
  let rec victim c k =
    let v = c.members.(Random.State.int g (Array.length c.members)) in
    let gone = R.Stuple.Set.singleton v in
    let same = match !prev with Some p -> R.Stuple.equal p v | None -> false in
    if (not same) && surviving c gone <> [] then Some (v, gone)
    else if k < 20 then victim c (k + 1)
    else None
  in
  let rec commit () =
    let c = comps.(pick ()) in
    match victim c 0 with
    | None -> commit ()
    | Some (v, gone) ->
      let delta = D.Delta.make ~deletes:gone ?inserts:(Option.map R.Stuple.Set.singleton !prev) () in
      let requests = match propose with Some f -> f c gone | None -> [] in
      prev := Some v;
      { delta; requests; removed = gone }
  in
  let rounds = Array.init n (fun _ -> commit ()) in
  (rounds, !prev)

(* [count] Zipf(0.9) ranks over [0, n) in a seed-shuffled order, drawn
   by stratified inverse-CDF sampling so that each rank's share of the
   sequence matches its probability up to rounding: how often the hot
   components come up does not depend on sampling luck, only their
   order does. *)
let zipf_sequence g ~n ~count =
  let z = Workload.Zipf.make ~n ~s:0.9 in
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  Array.iteri
    (fun i _ ->
      acc := !acc +. Workload.Zipf.pmf z i;
      cdf.(i) <- !acc)
    cdf;
  let draw u =
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cdf.(mid) >= u then hi := mid else lo := mid + 1
    done;
    !lo
  in
  let a =
    Array.init count (fun j ->
        draw (!acc *. (float_of_int j +. Random.State.float g 1.0) /. float_of_int count))
  in
  shuffle g a;
  a

(* the next rank of a sequence, cycling *)
let picker seq =
  let i = ref 0 in
  fun () ->
    let r = seq.(!i mod Array.length seq) in
    incr i;
    r

let whatif_skew ~seed ~warm ~rounds =
  let db = pivot_db ~seed ~roots:2000 in
  let comps = pivot_components ~seed db in
  let n = Array.length comps in
  let g = rng ~seed 3 in
  (* eight distinct ranks per round; a rank already in the round waits
     for the next one, so the sequence's counts carry over *)
  let script count =
    let pick = picker (zipf_sequence g ~n ~count:(8 * count)) in
    let pending = ref [] in
    Array.init count (fun _ ->
        let chosen = Hashtbl.create 8 and deferred = ref [] in
        while Hashtbl.length chosen < 8 do
          let r = match !pending with x :: tl -> pending := tl; x | [] -> pick () in
          if Hashtbl.mem chosen r then deferred := r :: !deferred else Hashtbl.replace chosen r ()
        done;
        pending := List.rev_append !deferred !pending;
        let ranks = List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) chosen []) in
        let vts = List.concat_map (fun i -> surviving comps.(i) R.Stuple.Set.empty) ranks in
        { delta = D.Delta.empty; requests = requests_of vts; removed = R.Stuple.Set.empty })
  in
  let warm = script warm in
  let rounds = script rounds in
  { db; queries = pivot_queries; warm; tail = [||]; rounds }

let edit_churn ~seed ~warm ~rounds =
  let db = pivot_db ~seed ~roots:2000 in
  let comps = pivot_components ~seed db in
  let n = Array.length comps in
  let g = rng ~seed 4 in
  let propose = Some (fun c gone -> requests_of (surviving c gone)) in
  let warm, prev =
    chain warm g comps ~prev:None ~pick:(picker (zipf_sequence g ~n ~count:warm)) ~propose
  in
  let rounds, _ =
    chain rounds g comps ~prev ~pick:(picker (zipf_sequence g ~n ~count:rounds)) ~propose
  in
  { db; queries = pivot_queries; warm; tail = [||]; rounds }

(* restart_tail: [warm] is the seeding session — one proposal over the
   64 warmed components, then 40 commits each followed by that proposal;
   [tail] the 30 commits made by a session without the snapshot; every
   measured round recovers and asks the final proposal. *)
let restart_tail ~seed ~rounds =
  let db = pivot_db ~seed ~roots:500 in
  let comps = Array.sub (pivot_components ~seed db) 0 64 in
  let g = rng ~seed 5 in
  let pick () = Random.State.int g 64 in
  let proposal gone =
    requests_of (List.concat_map (fun c -> surviving c gone) (Array.to_list comps))
  in
  let first = { delta = D.Delta.empty; requests = proposal R.Stuple.Set.empty; removed = R.Stuple.Set.empty } in
  let commits, prev =
    chain 40 g comps ~prev:None ~pick ~propose:(Some (fun _ gone -> proposal gone))
  in
  let tail, last = chain 30 g comps ~prev ~pick ~propose:None in
  let gone = match last with Some v -> R.Stuple.Set.singleton v | None -> R.Stuple.Set.empty in
  let final = { delta = D.Delta.empty; requests = proposal gone; removed = gone } in
  {
    db;
    queries = pivot_queries;
    warm = Array.append [| first |] commits;
    tail;
    rounds = Array.make rounds final;
  }

(* ---- star-schema blocks (approx_blocks) ----

   40 disjoint blocks, each the database of one [Workload.Random_family]
   instance (4 dimensions, 60 facts, 15 tuples per dimension, skew 0.8)
   with every key shifted by [1000 * block], under four fixed queries
   joining the fact table with two dimensions each, in a cycle — no
   pivot forest, so every component takes the approximate tier. *)

let star_queries =
  List.map Cq.Parser.query_of_string
    [
      "Q0(KF, K0, A0, K1, A1) :- F(KF, K0, K1, W2, W3), D0(K0, A0, B0), D1(K1, A1, B1)";
      "Q1(KF, K1, A1, K2, A2) :- F(KF, W0, K1, K2, W3), D1(K1, A1, B1), D2(K2, A2, B2)";
      "Q2(KF, K2, A2, K3, A3) :- F(KF, W0, W1, K2, K3), D2(K2, A2, B2), D3(K3, A3, B3)";
      "Q3(KF, K3, A3, K0, A0) :- F(KF, K0, W1, W2, K3), D3(K3, A3, B3), D0(K0, A0, B0)";
    ]

let blocks = 40

let approx_blocks ~seed ~warm ~rounds =
  let spec =
    {
      Workload.Random_family.num_dimensions = 4;
      fact_tuples = 60;
      dim_tuples = 15;
      num_queries = 1;
      dims_per_query = 2;
      project_free = false;
      deletion_fraction = 0.0;
      skew = 0.8;
    }
  in
  let shift off v = match v with R.Value.Int k -> R.Value.int (k + off) | v -> v in
  let db = ref None in
  let facts =
    Array.init blocks (fun b ->
        let p = Workload.Random_family.generate ~rng:(rng ~seed (100 + b)) spec in
        let block = p.D.Problem.db in
        let base = match !db with Some d -> d | None -> R.Instance.empty (R.Instance.schema block) in
        let off = 1000 * b in
        let d, fs =
          R.Instance.fold
            (fun st (d, fs) ->
              let vs = R.Tuple.to_array st.R.Stuple.tuple in
              let vs =
                if st.R.Stuple.rel = "F" then Array.map (shift off) vs
                else Array.mapi (fun i v -> if i = 0 then shift off v else v) vs
              in
              let st' = R.Stuple.make st.R.Stuple.rel (R.Tuple.make vs) in
              (R.Instance.add_stuple d st', if st'.R.Stuple.rel = "F" then st' :: fs else fs))
            block (base, [])
        in
        db := Some d;
        Array.of_list (List.rev fs))
  in
  let db = Option.get !db in
  let g = rng ~seed 6 in
  let dv =
    List.concat_map
      (fun (q : Cq.Query.t) ->
        List.filter_map
          (fun t -> if Random.State.float g 1.0 < 0.2 then Some (q.Cq.Query.name, t) else None)
          (R.Tuple.Set.elements (Cq.Eval.evaluate db q)))
      star_queries
  in
  let requests = requests_of dv in
  let round r =
    let pick b = facts.(b).(Random.State.int g (Array.length facts.(b))) in
    let fs = R.Stuple.Set.of_list [ pick (2 * r mod blocks); pick ((2 * r + 1) mod blocks) ] in
    { delta = D.Delta.make ~deletes:fs ~inserts:fs (); requests; removed = R.Stuple.Set.empty }
  in
  let warm_rounds = Array.init warm round in
  let rounds = Array.init rounds (fun i -> round (warm + i)) in
  { db; queries = star_queries; warm = warm_rounds; tail = [||]; rounds }

(* ---- digests ---- *)

let digest s =
  let b = Buffer.create 65536 in
  let add_set set = R.Stuple.Set.iter (fun st -> Buffer.add_string b (R.Stuple.to_string st); Buffer.add_char b ';') set in
  R.Instance.fold (fun st () -> Buffer.add_string b (R.Stuple.to_string st); Buffer.add_char b '\n') s.db ();
  List.iter (fun q -> Buffer.add_string b (Cq.Query.to_string q); Buffer.add_char b '\n') s.queries;
  let add_round tag r =
    Buffer.add_string b tag;
    add_set r.delta.D.Delta.deletes;
    Buffer.add_char b '|';
    add_set r.delta.D.Delta.inserts;
    Buffer.add_char b '|';
    List.iter
      (fun (rq : D.Delta_request.t) ->
        Buffer.add_string b rq.D.Delta_request.view;
        List.iter (fun t -> Buffer.add_string b (R.Tuple.to_string t)) rq.D.Delta_request.tuples)
      r.requests;
    Buffer.add_char b '\n'
  in
  Array.iter (add_round "w") s.warm;
  Array.iter (add_round "t") s.tail;
  Array.iter (add_round "r") s.rounds;
  Digest.to_hex (Digest.string (Buffer.contents b))
