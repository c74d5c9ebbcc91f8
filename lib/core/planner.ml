module R = Relational
module Bitset = Setcover.Bitset

let src = Logs.Src.create "deleprop.planner" ~doc:"shatter-and-plan solver"

module Log = (val Logs.src_log src : Logs.LOG)

type classification =
  | Exact_small
  | Exact_forest
  | Approximate

type shard_decision = {
  component : int;
  stuples : int;
  vtuples : int;
  bad : int;
  classification : classification;
  winner : string;
  cost : float;
  exact : bool;
  degraded : bool;
  cached : bool;
  fingerprint : Fingerprint.t option;
      (* the shard's cache key, when the answer entered (or came from)
         the shard cache — what the engine's component memos record for
         split-aware reuse *)
}

type report = {
  solutions : Solution.t list;
  failures : Portfolio.failure list;
  degraded : bool;
  decomposed : bool;
  shards : shard_decision list;
  shards_cached : int;
  index : Component_index.t;
}

let pp_classification ppf = function
  | Exact_small -> Format.fprintf ppf "exact-small"
  | Exact_forest -> Format.fprintf ppf "exact-forest"
  | Approximate -> Format.fprintf ppf "approximate"

let pp_shard_decision ppf d =
  Format.fprintf ppf
    "component %d (%d tuples, %d views, %d bad): %a -> %s, cost %g%s%s%s"
    d.component d.stuples d.vtuples d.bad pp_classification d.classification
    d.winner d.cost
    (if d.exact then " (exact)" else "")
    (if d.degraded then " [degraded]" else "")
    (if d.cached then " [cached]" else "")

(* ---- shard solution cache ---- *)

(* What a future round needs to splice a clean shard's answer back in
   without re-running any solver: the decision fields plus the deleted
   set (for the union) and the certificate (for the composite factor).
   The shard outcome itself is never stored — the composite's outcome is
   computed from the arena's rows each round anyway. *)
type cache_entry = {
  e_classification : classification;
  e_winner : string;
  e_deleted : R.Stuple.Set.t;
  e_cost : float;
  e_certificate : Solution.certificate;
  e_forest : bool;
      (* the shard arena's forest_case flag — needed to recompose the
         guarantee factor without materializing the shard *)
  e_split : bool;
      (* seeded by [seed_fragments] (a restriction of a solved parent
         entry onto a surviving fragment) rather than solved directly —
         splicing such an entry counts as a fragment reuse *)
  e_vtuples : int;
      (* the shard's live ‖V‖ when it was solved, refreshed by every
         restriction — the approximate tier's splice guard re-derives
         the √‖V‖ bucket from it *)
  e_decomposition : Decomposition.forest_tree list;
      (* the forest-DP winner's recorded trees ([Solution.decomposition]),
         what [seed_fragments] replays onto a surviving fragment; empty
         for every other winner *)
}

type cache = {
  lru : (Fingerprint.t, cache_entry) Setcover.Lru.t;
  mutable hits : int;
  mutable misses : int;
  mutable fragment_reuses : int;
      (* spliced entries that were seeded by fragment restriction rather
         than solved — the payoff counter for split-aware reuse *)
  mutable fragment_reuses_exact : int;
  mutable fragment_reuses_forest : int;
  mutable fragment_reuses_approx : int;
      (* [fragment_reuses] split by the seeded entry's tier *)
}

let create_cache ?(capacity = 512) () =
  { lru = Setcover.Lru.create ~capacity; hits = 0; misses = 0;
    fragment_reuses = 0; fragment_reuses_exact = 0; fragment_reuses_forest = 0;
    fragment_reuses_approx = 0 }

let cache_clear c = Setcover.Lru.clear c.lru

(* ---- snapshot hooks (crash-consistent warm recovery) ----

   A cache's observable state is plain data: the (fingerprint, entry)
   bindings in recency order plus the counters. The engine's
   snapshot codec serializes exactly this pair and a recovered session
   restores it, so a re-warmed cache is bit-identical to the live one it
   was written from — including future eviction order and the lifetime
   hit counters the stats report. *)

type cache_stats = {
  s_hits : int;
  s_misses : int;
  s_fragment_reuses : int;
  s_fragment_reuses_exact : int;
  s_fragment_reuses_forest : int;
  s_fragment_reuses_approx : int;
}

let cache_stats c =
  { s_hits = c.hits; s_misses = c.misses; s_fragment_reuses = c.fragment_reuses;
    s_fragment_reuses_exact = c.fragment_reuses_exact;
    s_fragment_reuses_forest = c.fragment_reuses_forest;
    s_fragment_reuses_approx = c.fragment_reuses_approx }

(* most-recently-used first ([Lru.fold] visits MRU first and cons
   reverses, so rev restores visit order) *)
let cache_entries c =
  List.rev (Setcover.Lru.fold (fun fp e acc -> (fp, e) :: acc) c.lru [])

(* [entries] MRU-first, as [cache_entries] returns them: adding in
   reverse (LRU-first) rebuilds the same recency chain. Bindings beyond
   the capacity simply evict in order, so restoring into a smaller cache
   keeps the most recent ones. *)
let cache_restore ?stats c entries =
  Setcover.Lru.clear c.lru;
  List.iter (fun (fp, e) -> Setcover.Lru.add c.lru fp e) (List.rev entries);
  match stats with
  | None -> ()
  | Some s ->
    c.hits <- s.s_hits;
    c.misses <- s.s_misses;
    c.fragment_reuses <- s.s_fragment_reuses;
    c.fragment_reuses_exact <- s.s_fragment_reuses_exact;
    c.fragment_reuses_forest <- s.s_fragment_reuses_forest;
    c.fragment_reuses_approx <- s.s_fragment_reuses_approx

(* One shard, solved through the tier ladder. Each tier is a restricted
   portfolio round on the shard arena (sequential — the fan-out across
   shards already owns the parallelism); a tier whose solvers all fail
   passes its recorded failures down to the next. A rung's entry test
   runs only when the ladder reaches it, so a shard the small tier
   answers never pays for the forest test. *)
let solve_shard ~exact_threshold ~only ~budget_ms (sh : Arena.shard) =
  let sa = sh.Arena.arena in
  let allowed name =
    match only with None -> true | Some names -> List.mem name names
  in
  let run names =
    Portfolio.solutions_report ~exact_threshold ~only:names ?budget_ms sa
  in
  let tiers =
    [
      ( Exact_small,
        (fun () ->
          allowed "brute"
          && Array.length (Arena.candidate_ids sa) <= exact_threshold),
        fun () -> run [ "brute" ] );
      ( Exact_forest,
        (fun () -> allowed "dp-tree" && Dp_tree.applicable sa),
        fun () -> run [ "dp-tree" ] );
      ( Approximate,
        (fun () -> true),
        fun () ->
          run (List.filter allowed [ "primal-dual"; "lowdeg"; "general"; "greedy" ])
      );
    ]
  in
  let rec attempt acc = function
    | [] -> assert false
    | (_, enters, _) :: rest when not (enters ()) -> attempt acc rest
    | (cls, _, f) :: rest ->
      let r = f () in
      let answered = r.Portfolio.solutions <> [] && not r.Portfolio.degraded in
      if answered || List.is_empty rest then
        (cls, { r with Portfolio.failures = acc @ r.Portfolio.failures })
      else attempt (acc @ r.Portfolio.failures) rest
  in
  attempt [] tiers

(* a shard's answer as the recombination step consumes it — either
   freshly solved or spliced from the cache (which never pays for
   [Arena.materialize], so only plain data crosses this interface) *)
type shard_result = {
  r_component : int;
  r_stuples : int;
  r_vtuples : int;
  r_bad : int array;  (* the component's bad vids, ascending *)
  r_forest : bool;
  r_classification : classification;
  r_winner : string;
  r_deleted : R.Stuple.Set.t;
  r_cost : float;
  r_certificate : Solution.certificate;
  r_degraded : bool;
  r_failures : Portfolio.failure list;
  r_cached : bool;
  r_fingerprint : Fingerprint.t option;
}

(* Only deterministic answers may be memoized: a degraded ladder, an
   [Anytime] certificate or any recorded timeout/crash means the budget
   shaped the result, and a replay under different load could differ. *)
let cacheable (r : Portfolio.report) (w : Solution.t) =
  (not r.Portfolio.degraded)
  && r.Portfolio.failures = []
  && w.Solution.certificate <> Solution.Anytime

(* Guarantee composition: the optimum of an independent-component
   instance is the sum of the shard optima, so the union's cost is
   within max_c factor_c of it. A primal-dual shard carries a
   multiplicative factor only on forest instances (Theorem 3's l). *)
let factor_of ~l ~forest (cert : Solution.certificate) =
  match cert with
  | Solution.Exact -> Some 1.0
  | Solution.Ratio r -> Some r
  | Solution.Dual_bound _ -> if forest then Some l else None
  | Solution.Heuristic | Solution.Anytime | Solution.Composite _ -> None

let solve ?(exact_threshold = 16) ?only ?domains ?pool ?budget_ms ?index
    ?cache (a : Arena.t) =
  (match only with
  | Some names -> Solvers.check_names ~caller:"Planner.solve" names
  | None -> ());
  (* the session's live index enumerates active components in
     O(‖ΔV‖ + active); a standalone call builds one for [a] *)
  let index =
    match index with Some ix -> ix | None -> Component_index.build a
  in
  let whole () =
    let r =
      Portfolio.solutions_report ~exact_threshold ?only ?domains ?pool ?budget_ms a
    in
    { solutions = r.Portfolio.solutions; failures = r.Portfolio.failures;
      degraded = r.Portfolio.degraded; decomposed = false; shards = [];
      shards_cached = 0; index }
  in
  let protos = Component_index.active index a in
  let n = Array.length protos in
  (* n = 1 routes through the shard pipeline like any other round: the
     single active component still fingerprints into the shard cache
     (and gets the whole budget), so sessions whose instance shatters
     into one component are no longer locked out of memoization *)
  if n = 0 then whole ()
  else begin
    let t0 = Unix.gettimeofday () in
    (* each active component's bad vids, ascending, in one pass over ΔV *)
    let bad_vids = Hashtbl.create (2 * n) in
    Bitset.iter
      (fun vid ->
        let c = Component_index.component_of_vid index a vid in
        Hashtbl.replace bad_vids c
          (vid :: Option.value ~default:[] (Hashtbl.find_opt bad_vids c)))
      a.Arena.bad;
    let bad_of (ps : Arena.proto_shard) =
      Array.of_list (List.rev (Hashtbl.find bad_vids ps.Arena.p_component))
    in
    (* Consult the cache for clean shards only — dirty components
       re-solve unconditionally, so a fingerprint collision can only
       matter on a component no delta has touched since it was last
       solved (where the entry is right by construction). A hit costs
       one parent-side hash ([Fingerprint.shard]), or none when the
       component's memo was recorded under exactly this ΔV: a clean
       component's content is what it was when the memo's fingerprint
       was taken, so only its ΔV can differ. The shard is never
       materialized. *)
    let splice (ps : Arena.proto_shard) =
      match cache with
      | None -> None
      | Some c ->
        if Component_index.dirty index ps.Arena.p_component then None
        else begin
          let bad = bad_of ps in
          let fp =
            match Component_index.memo index ps.Arena.p_component with
            | Some (fp, mbad) when mbad = bad -> fp
            | _ -> Fingerprint.shard a ps
          in
          match Setcover.Lru.find c.lru fp with
          | Some e ->
            c.hits <- c.hits + 1;
            if e.e_split then begin
              c.fragment_reuses <- c.fragment_reuses + 1;
              match e.e_classification with
              | Exact_small ->
                c.fragment_reuses_exact <- c.fragment_reuses_exact + 1
              | Exact_forest ->
                c.fragment_reuses_forest <- c.fragment_reuses_forest + 1
              | Approximate ->
                c.fragment_reuses_approx <- c.fragment_reuses_approx + 1
            end;
            Some
              { r_component = ps.Arena.p_component;
                r_stuples = Array.length ps.Arena.p_sids;
                r_vtuples = Array.length ps.Arena.p_vids;
                r_bad = bad; r_forest = e.e_forest;
                r_classification = e.e_classification;
                r_winner = e.e_winner; r_deleted = e.e_deleted;
                r_cost = e.e_cost;
                r_certificate = e.e_certificate;
                r_degraded = false; r_failures = []; r_cached = true;
                r_fingerprint = Some fp }
          | None ->
            c.misses <- c.misses + 1;
            None
        end
    in
    let proto_list = Array.to_list protos in
    let spliced = List.map splice proto_list in
    let to_solve =
      List.filter_map
        (fun (ps, s) -> match s with None -> Some ps | Some _ -> None)
        (List.combine proto_list spliced)
    in
    (* the budget splits across the shards actually being re-solved —
       a spliced shard consumes no wall-clock, so its share belongs to
       the fresh solves, not to an idle slot *)
    let shard_budget =
      Option.map
        (fun ms -> ms /. float_of_int (max 1 (List.length to_solve)))
        budget_ms
    in
    (* materialization (restrict + build) happens inside the task, so
       the fan-out parallelizes it along with the solving — and clean
       shards never pay it at all *)
    let task ps =
      let sh = Arena.materialize a ps in
      let cls, r =
        solve_shard ~exact_threshold ~only ~budget_ms:shard_budget sh
      in
      (sh, cls, r)
    in
    let fresh_results = Par.map_result ?domains ?pool task to_solve in
    (* re-assemble in shard order: each missing slot takes the next
       fresh result; solved shards feed the cache as they land *)
    let fresh = ref fresh_results in
    let solved =
      List.map2
        (fun (ps : Arena.proto_shard) -> function
          | Some r -> Some r
          | None -> (
            let result =
              match !fresh with
              | r :: tl ->
                fresh := tl;
                r
              | [] -> assert false
            in
            match result with
            | Error e ->
              Log.warn (fun m ->
                  m "shard %d crashed outside the solver wrapper: %s"
                    ps.Arena.p_component (Printexc.to_string e));
              None
            | Ok (sh, cls, (r : Portfolio.report)) -> (
              match r.Portfolio.solutions with
              | [] ->
                Log.warn (fun m ->
                    m "shard %d produced no feasible answer"
                      ps.Arena.p_component);
                None
              | w :: _ ->
                let forest = sh.Arena.arena.Arena.forest_case in
                let fp =
                  match cache with
                  | Some c when cacheable r w ->
                    let fp = Fingerprint.arena sh.Arena.arena in
                    Setcover.Lru.add c.lru fp
                      { e_classification = cls;
                        e_winner = w.Solution.algorithm;
                        e_deleted = w.Solution.deleted;
                        e_cost = Solution.cost w;
                        e_certificate = w.Solution.certificate;
                        e_forest = forest; e_split = false;
                        e_vtuples = Arena.live_vtuples sh.Arena.arena;
                        e_decomposition = w.Solution.decomposition };
                    Some fp
                  | _ -> None
                in
                Some
                  { r_component = ps.Arena.p_component;
                    r_stuples = Arena.num_stuples sh.Arena.arena;
                    r_vtuples = Arena.num_vtuples sh.Arena.arena;
                    r_bad = bad_of ps;
                    r_forest = forest; r_classification = cls;
                    r_winner = w.Solution.algorithm;
                    r_deleted = w.Solution.deleted;
                    r_cost = Solution.cost w;
                    r_certificate = w.Solution.certificate;
                    r_degraded = r.Portfolio.degraded;
                    r_failures = r.Portfolio.failures; r_cached = false;
                    r_fingerprint = fp }))
        )
        proto_list spliced
    in
    if List.exists Option.is_none solved then begin
      (* an unsolved shard would make the union infeasible — retreat to
         the whole instance rather than return garbage *)
      Log.warn (fun m -> m "decomposed solve incomplete; retrying whole");
      whole ()
    end
    else
      let solved = List.filter_map Fun.id solved in
      let decisions =
        List.map
          (fun r ->
            { component = r.r_component; stuples = r.r_stuples;
              vtuples = r.r_vtuples; bad = Array.length r.r_bad;
              classification = r.r_classification; winner = r.r_winner;
              cost = r.r_cost;
              exact = (r.r_certificate = Solution.Exact);
              degraded = r.r_degraded; cached = r.r_cached;
              fingerprint = r.r_fingerprint })
          solved
      in
      let deleted =
        List.fold_left
          (fun acc r -> R.Stuple.Set.union acc r.r_deleted)
          R.Stuple.Set.empty solved
      in
      let outcome = Side_effect.eval_arena a deleted in
      let l = float_of_int (Problem.max_arity a.Arena.problem) in
      let factor =
        List.fold_left
          (fun acc r ->
            match (acc, factor_of ~l ~forest:r.r_forest r.r_certificate) with
            | Some f, Some g -> Some (Float.max f g)
            | _ -> None)
          (Some 1.0) solved
      in
      let composite =
        { Solution.algorithm = "planner"; deleted; outcome;
          elapsed_ms = (Unix.gettimeofday () -. t0) *. 1000.0;
          certificate = Solution.Composite { shards = n; factor };
          (* the per-shard trees live in the cache entries; the
             composite itself is never cached *)
          decomposition = [] }
      in
      let n_cached =
        List.length (List.filter (fun r -> r.r_cached) solved)
      in
      (* with a cache, every decided shard is clean now, and a memoized
         one records its (fingerprint, ΔV) on its component: what a
         later clean round looks it up under, and what [seed_fragments]
         restricts onto surviving fragments when a delete splits it *)
      let index =
        match cache with
        | None -> index
        | Some _ ->
          List.fold_left
            (fun index r ->
              let index =
                match r.r_fingerprint with
                | None -> index
                | Some fp ->
                  Component_index.record_memo index ~component:r.r_component
                    ~fp ~bad:r.r_bad
              in
              Component_index.clean index r.r_component)
            index solved
      in
      { solutions = [ composite ];
        failures = List.concat_map (fun r -> r.r_failures) solved;
        degraded = List.exists (fun (d : shard_decision) -> d.degraded) decisions;
        decomposed = true; shards = decisions; shards_cached = n_cached;
        index }
  end

(* ---- split-aware fragment seeding ----

   When a committed deletion shatters a component, the fragment that
   still holds the memoized request's ΔV may be solvable by restriction
   of the parent's cached entry — re-keyed under the fragment's
   fingerprint without running a solver. All three tiers participate,
   each under its own soundness guards on top of the shared ones (ΔV
   intact and confined to one fragment with a live roster). The two
   *identity* tiers additionally demand that no killed view tuple's
   witness meets the candidate set — their deleted sets live inside the
   candidates, so an untouched neighborhood pins the answer's cost in
   place; the forest tier instead *replays* killed weight through its
   recorded tree, so it tolerates deletions the identity tiers refuse:

   + [Exact_small]: the brute enumeration is a function of the candidate
     set, the bad view tuples and the candidate-incident preserved
     tuples — all of which survive verbatim — so the parent entry *is*
     the fragment's answer (identity restriction).

   + [Exact_forest]: the recorded {!Decomposition.forest_tree} is
     projected through {!Decomposition.restrict_forest}: lost preserved
     endpoint weight is discounted down the recorded tree and every
     surviving uncut node must retain enough recorded slack that its
     cut/no-cut decision cannot flip; the fragment must also keep the
     parent's pivot as the content-minimal common witness member so a
     fresh solve would root identically. The entry's cost shrinks by
     the pivot's replayed discount — killed preserved weight under the
     recorded cut frontier is already gone on the fragment.

   + [Approximate]: identity restriction, additionally requiring that
     the fragment's √‖V‖ bucket equals the parent shard's recorded one
     (so the shard-local LowDeg sweep prunes identically), that the
     fragment is not forest-DP applicable (a fresh solve would change
     tier), and that the winner's certificate is rewritable — "general"
     is excluded because its ratio reads the restricted instance's
     sizes; a winning "lowdeg" [Ratio] is rewritten to the fragment's
     own [2√‖V_F‖].

   The seeded entry is what a fresh solve of the fragment under the same
   ΔV would have cached — bit-identical winner, deleted set, cost and
   certificate (enforced by the lockstep suites in
   [test/test_compindex.ml] and [test/test_decomp_splice.ml]) — and
   [e_split] marks it so splices count into the per-tier
   [fragment_reuses_*] counters. An entry without exactly one recorded
   tree never seeds through the forest tier. *)

(* The LowDeg wide-pruning test is [float_of_int width > √nv] over
   integer widths, so two view-tuple counts whose roots share a floor
   prune identically. *)
let local_bucket nv = int_of_float (Float.floor (sqrt (float_of_int nv)))

(* [Exact_small]: identity; only the live-roster size is refreshed so
   chained splits see fragment-local metadata. *)
let restrict_small_entry ~nvf (e : cache_entry) =
  Some { e with e_split = true; e_vtuples = nvf }

(* [Exact_forest]: replay the recorded DP tree onto the surviving
   roster. [lost_pres] are the parent component's preserved vids that
   died or landed in another fragment; each one's endpoint (deepest
   witness member under the recorded depths, ties to the
   content-earliest, mirroring the solver's fold) charges its weight to
   [lost_end]. *)
let restrict_forest_entry ~(before : Arena.t) ~(after : Arena.t) ~f_sids
    ~f_vids ~lost_pres (e : cache_entry) =
  match e.e_decomposition with
  | [ tree ] -> (
    let nvf = Array.length f_vids in
    (* fresh solves root at the content-minimal common witness member;
       the recorded pivot must still be it *)
    let cnt : (int, int) Hashtbl.t = Hashtbl.create 16 in
    Array.iter
      (fun v ->
        Array.iter
          (fun s ->
            Hashtbl.replace cnt s
              (succ (Option.value ~default:0 (Hashtbl.find_opt cnt s))))
          after.Arena.witness.(v))
      f_vids;
    let min_common =
      Hashtbl.fold
        (fun sid k best ->
          if k <> nvf then best
          else
            match best with
            | None -> Some sid
            | Some b ->
              if
                R.Stuple.compare after.Arena.stuples.(sid)
                  after.Arena.stuples.(b)
                < 0
              then Some sid
              else best)
        cnt None
    in
    match min_common with
    | Some sid
      when String.equal
             (Decomposition.key after.Arena.stuples.(sid))
             tree.Decomposition.ft_pivot -> (
      let depth : (string, int) Hashtbl.t = Hashtbl.create 64 in
      List.iter
        (fun (k, n) -> Hashtbl.replace depth k n.Decomposition.fn_depth)
        tree.Decomposition.ft_nodes;
      let lost_end : (string, float) Hashtbl.t = Hashtbl.create 16 in
      let complete =
        List.for_all
          (fun v ->
            let members =
              Array.to_list before.Arena.witness.(v)
              |> List.map (fun s -> before.Arena.stuples.(s))
              |> List.sort R.Stuple.compare
            in
            match members with
            | [] -> false
            | first :: rest -> (
              let endpoint =
                List.fold_left
                  (fun best st ->
                    match best with
                    | None -> None
                    | Some b -> (
                      match
                        ( Hashtbl.find_opt depth (Decomposition.key st),
                          Hashtbl.find_opt depth (Decomposition.key b) )
                      with
                      | Some dst, Some db ->
                        if dst > db then Some st else best
                      | _ -> None))
                  (Some first) rest
              in
              match endpoint with
              | None -> false (* a member outside the recorded tree *)
              | Some st ->
                let k = Decomposition.key st in
                Hashtbl.replace lost_end k
                  (before.Arena.weights.(v)
                  +. Option.value ~default:0.0 (Hashtbl.find_opt lost_end k));
                true))
          lost_pres
      in
      if not complete then None
      else
        let surv : (string, unit) Hashtbl.t = Hashtbl.create 64 in
        Array.iter
          (fun sid ->
            Hashtbl.replace surv
              (Decomposition.key after.Arena.stuples.(sid))
              ())
          f_sids;
        match
          Decomposition.restrict_forest tree
            ~surviving:(fun k -> Hashtbl.mem surv k)
            ~lost_end:(Hashtbl.fold (fun k w acc -> (k, w) :: acc) lost_end [])
        with
        | Error reason ->
          Log.debug (fun m -> m "forest restriction refused: %s" reason);
          None
        | Ok tree' ->
          (* the pivot's replayed DP value is the fragment's optimum;
             killed preserved weight the frontier would have deleted is
             already gone, so the answer's cost drops by exactly the
             pivot's discount *)
          let pivot_value t =
            match List.assoc_opt t.Decomposition.ft_pivot t.Decomposition.ft_nodes with
            | Some n -> n.Decomposition.fn_value
            | None -> 0.0
          in
          let discount = pivot_value tree -. pivot_value tree' in
          Some
            { e with
              e_split = true;
              e_cost = e.e_cost -. discount;
              e_vtuples = nvf;
              e_decomposition = [ tree' ] })
    | _ -> None)
  | _ -> None

(* [Approximate]: identity under the extra guards described above. *)
let restrict_approx_entry ~(after : Arena.t) ~f_vids (e : cache_entry) =
  let nvf = Array.length f_vids in
  if
    List.mem e.e_winner [ "primal-dual"; "lowdeg"; "greedy" ]
    && local_bucket nvf = local_bucket e.e_vtuples
    && Result.is_error (Dp_tree.pivots after f_vids)
  then
    let cert =
      match e.e_certificate with
      | Solution.Ratio _ when String.equal e.e_winner "lowdeg" ->
        Solution.Ratio (2.0 *. sqrt (float_of_int nvf))
      | c -> c
    in
    Some { e with e_split = true; e_certificate = cert; e_vtuples = nvf }
  else None

let seed_fragments c ~(before : Arena.t) ~before_index ~dd ~(after : Arena.t)
    ~after_index =
  let comp_before sid = Component_index.component_of_sid before_index sid in
  let comp_after vid = Component_index.component_of_vid after_index after vid in
  (* affected old components, each considered once, by least live sid
     (the canonical order, so LRU insertions keep their order) *)
  let affected =
    R.Stuple.Set.fold
      (fun st acc ->
        let comp = comp_before (Arena.stuple_id before st) in
        ((Component_index.sids_of before_index comp).(0), comp) :: acc)
      dd []
    |> List.sort_uniq compare |> List.map snd
  in
  let newly_dead vid =
    Bitset.mem after.Arena.dead_v vid
    && not (Bitset.mem before.Arena.dead_v vid)
  in
  let seed index comp =
    match Component_index.memo before_index comp with
    | None -> index
    | Some (fp, bad) -> (
      if Array.length bad = 0 then index
      else
        match Setcover.Lru.find c.lru fp with
        | None -> index
        | Some e ->
          (* the memoized ΔV must have survived intact and landed in
             one fragment (witness containment guarantees its
             candidates and their incident views went with it) *)
          if
            Array.for_all
              (fun v -> not (Bitset.mem after.Arena.dead_v v))
              bad
          then begin
            let f = comp_after bad.(0) in
            if Array.for_all (fun v -> comp_after v = f) bad then begin
              let f_sids = Component_index.sids_of index f in
              let f_vids = Component_index.vids_of index f in
              (* an empty roster has nothing to answer for; seeding it
                 would only park a dead entry in the LRU *)
              if Array.length f_vids = 0 then index
              else begin
                let candidates = Hashtbl.create 16 in
                Array.iter
                  (fun v ->
                    Array.iter
                      (fun s -> Hashtbl.replace candidates s ())
                      after.Arena.witness.(v))
                  bad;
                (* identity tiers additionally require that the
                   deletion killed no view tuple whose witness meets
                   the candidate set — their deleted sets live inside
                   the candidates, so an untouched neighborhood pins
                   the answer's side effect in place. The forest tier
                   skips this check: its tree replay discounts killed
                   preserved weight explicitly, and any killed view
                   that would meet the candidates is exactly what the
                   lost-endpoint accounting absorbs. *)
                let touched = ref false in
                R.Stuple.Set.iter
                  (fun st ->
                    let sid = Arena.stuple_id before st in
                    if comp_before sid = comp then
                      Array.iter
                        (fun vid ->
                          if newly_dead vid then
                            Array.iter
                              (fun wsid ->
                                if Hashtbl.mem candidates wsid then
                                  touched := true)
                              before.Arena.witness.(vid))
                        before.Arena.containing.(sid))
                  dd;
                begin
                  let restricted =
                    match e.e_classification with
                    | Exact_small ->
                      if !touched then None
                      else restrict_small_entry ~nvf:(Array.length f_vids) e
                    | Exact_forest ->
                      let bad_set = Hashtbl.create 16 in
                      Array.iter
                        (fun v -> Hashtbl.replace bad_set v ())
                        bad;
                      let lost_pres =
                        Array.fold_left
                          (fun acc v ->
                            if Hashtbl.mem bad_set v then acc
                            else if comp_after v <> f then v :: acc
                            else acc)
                          []
                          (Component_index.vids_of before_index comp)
                      in
                      restrict_forest_entry ~before ~after ~f_sids ~f_vids
                        ~lost_pres e
                    | Approximate ->
                      if !touched then None
                      else restrict_approx_entry ~after ~f_vids e
                  in
                  match restricted with
                  | None -> index
                  | Some e' ->
                    let bb = Bitset.create (Arena.num_vtuples after) in
                    Array.iter (Bitset.add bb) bad;
                    let ps =
                      { Arena.p_component = f; p_sids = f_sids;
                        p_vids = f_vids }
                    in
                    let fpf = Fingerprint.shard ~bad:bb after ps in
                    Setcover.Lru.add c.lru fpf e';
                    Component_index.clean
                      (Component_index.record_memo index ~component:f
                         ~fp:fpf ~bad)
                      f
                end
              end
            end
            else index
          end
          else index)
  in
  List.fold_left seed after_index affected
