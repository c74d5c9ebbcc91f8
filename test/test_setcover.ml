(* Tests for Red-Blue Set Cover and Positive-Negative Partial Set Cover:
   exact solvers, approximations, and the linear reductions between them. *)

open Util
module SC = Setcover

let iset = SC.Iset.of_list

let rb_instance sets ~num_red ~num_blue =
  SC.Red_blue.make_unit ~num_red ~num_blue
    (List.mapi
       (fun i (red, blue) ->
         { SC.Red_blue.label = Printf.sprintf "C%d" i; red = iset red; blue = iset blue })
       sets)

(* ---- Red-Blue ---- *)

let test_rb_feasibility () =
  let t = rb_instance ~num_red:2 ~num_blue:2 [ ([ 0 ], [ 0 ]); ([ 1 ], [ 1 ]) ] in
  Alcotest.(check bool) "coverable" true (SC.Red_blue.coverable t);
  Alcotest.(check bool) "both sets" true (SC.Red_blue.is_feasible t [ 0; 1 ]);
  Alcotest.(check bool) "one set" false (SC.Red_blue.is_feasible t [ 0 ])

let test_rb_uncoverable () =
  let t = rb_instance ~num_red:1 ~num_blue:2 [ ([ 0 ], [ 0 ]) ] in
  Alcotest.(check bool) "uncoverable" false (SC.Red_blue.coverable t);
  Alcotest.(check bool) "exact none" true (SC.Red_blue.solve_exact t = None);
  Alcotest.(check bool) "greedy none" true (SC.Red_blue.solve_greedy t = None);
  Alcotest.(check bool) "lowdeg none" true (SC.Red_blue.solve_lowdeg t = None)

let test_rb_exact_simple () =
  (* set 0 covers both blues at red cost 2; sets 1+2 cover them at cost 1 *)
  let t =
    rb_instance ~num_red:3 ~num_blue:2
      [ ([ 0; 1 ], [ 0; 1 ]); ([ 2 ], [ 0 ]); ([ 2 ], [ 1 ]) ]
  in
  match SC.Red_blue.solve_exact t with
  | None -> Alcotest.fail "expected solution"
  | Some s ->
    check_float "optimal cost" 1.0 s.SC.Red_blue.cost;
    Alcotest.(check (list int)) "chosen" [ 1; 2 ] s.SC.Red_blue.chosen

let test_rb_exact_zero_cost () =
  let t = rb_instance ~num_red:1 ~num_blue:1 [ ([ 0 ], [ 0 ]); ([], [ 0 ]) ] in
  match SC.Red_blue.solve_exact t with
  | None -> Alcotest.fail "expected solution"
  | Some s -> check_float "free cover" 0.0 s.SC.Red_blue.cost

let test_rb_weighted () =
  let sets =
    [
      { SC.Red_blue.label = "a"; red = iset [ 0 ]; blue = iset [ 0 ] };
      { SC.Red_blue.label = "b"; red = iset [ 1 ]; blue = iset [ 0 ] };
    ]
  in
  let t = SC.Red_blue.make ~red_weights:[| 10.0; 1.0 |] ~num_blue:1 sets in
  match SC.Red_blue.solve_exact t with
  | None -> Alcotest.fail "expected solution"
  | Some s ->
    check_float "picks the light red" 1.0 s.SC.Red_blue.cost;
    Alcotest.(check (list int)) "chosen" [ 1 ] s.SC.Red_blue.chosen

let test_rb_out_of_range () =
  Alcotest.(check bool) "rejected" true
    (try ignore (rb_instance ~num_red:1 ~num_blue:1 [ ([ 5 ], [ 0 ]) ]); false
     with Invalid_argument _ -> true)

(* random instance generator for properties *)
let rb_gen =
  QCheck2.Gen.(
    int_range 0 10_000 |> map (fun seed ->
        let rng = Util.rng seed in
        Workload.Rbsc_gen.red_blue ~rng ~num_red:(1 + Random.State.int rng 6)
          ~num_blue:(1 + Random.State.int rng 6)
          ~num_sets:(2 + Random.State.int rng 6)
          ~red_density:0.3 ~blue_density:0.4))

let prop_approx_feasible_and_bounded =
  qcheck ~count:100 "greedy & lowdeg: feasible and >= exact" rb_gen (fun t ->
      match SC.Red_blue.solve_exact t with
      | None -> true
      | Some opt ->
        let check = function
          | None -> false
          | Some (s : SC.Red_blue.solution) ->
            SC.Red_blue.is_feasible t s.chosen && s.cost +. 1e-9 >= opt.SC.Red_blue.cost
        in
        check (SC.Red_blue.solve_greedy t) && check (SC.Red_blue.solve_lowdeg t))

let prop_lowdeg_ratio =
  (* Peleg's bound 2*sqrt(|C| * log(beta+1)) on unit weights, with a +1
     cushion for the additive edge cases (opt = 0) *)
  qcheck ~count:100 "lowdeg within the Peleg ratio" rb_gen (fun t ->
      match SC.Red_blue.solve_exact t, SC.Red_blue.solve_lowdeg t with
      | Some opt, Some sol ->
        let c = float_of_int (SC.Red_blue.num_sets t) in
        let beta = float_of_int t.SC.Red_blue.num_blue in
        let bound = 2.0 *. sqrt (c *. log (beta +. 1.0)) in
        sol.SC.Red_blue.cost <= (bound *. opt.SC.Red_blue.cost) +. 1e-9
        || feq opt.SC.Red_blue.cost 0.0 && feq sol.SC.Red_blue.cost 0.0
        || (feq opt.SC.Red_blue.cost 0.0 && sol.SC.Red_blue.cost <= bound)
      | _ -> true)

let prop_solution_of_consistent =
  qcheck ~count:50 "solution_of agrees with manual cost" rb_gen (fun t ->
      let all = List.init (SC.Red_blue.num_sets t) Fun.id in
      match SC.Red_blue.solution_of t all with
      | None -> not (SC.Red_blue.coverable t)
      | Some s ->
        let manual =
          SC.Iset.fold (fun r acc -> acc +. t.SC.Red_blue.red_weights.(r)) s.red_covered 0.0
        in
        feq manual s.SC.Red_blue.cost)

(* ---- Bitset (differential against Iset) ---- *)

module B = SC.Bitset

let test_bitset_basics () =
  let b = B.create 100 in
  Alcotest.(check bool) "fresh empty" true (B.is_empty b);
  B.add b 0; B.add b 62; B.add b 63; B.add b 99;
  Alcotest.(check int) "cardinal" 4 (B.cardinal b);
  Alcotest.(check (list int)) "elements" [ 0; 62; 63; 99 ] (B.elements b);
  B.remove b 63;
  Alcotest.(check bool) "removed" false (B.mem b 63);
  Alcotest.(check int) "cardinal after remove" 3 (B.cardinal b);
  Alcotest.(check int) "full cardinal" 100 (B.cardinal (B.full 100));
  Alcotest.(check bool) "out of range rejected" true
    (try ignore (B.mem b 100); false with Invalid_argument _ -> true);
  Alcotest.(check bool) "universe mismatch rejected" true
    (try ignore (B.union b (B.create 99)); false with Invalid_argument _ -> true)

(* random (universe, xs, ys) triples; lengths straddle the 63-bit word
   boundary so the last-word masking is exercised *)
let bitset_gen =
  QCheck2.Gen.(
    int_range 0 10_000 |> map (fun seed ->
        let rng = Util.rng seed in
        let len = Random.State.int rng 200 in
        let pick () =
          List.init (Random.State.int rng (2 * len + 1)) (fun _ ->
              Random.State.int rng (max 1 len))
        in
        (len, (if len = 0 then [] else pick ()), if len = 0 then [] else pick ())))

let prop_bitset_matches_iset =
  qcheck ~count:200 "bitset: ops agree with Iset" bitset_gen (fun (len, xs, ys) ->
      let bx = B.of_list ~len xs and by = B.of_list ~len ys in
      let ix = iset xs and iy = iset ys in
      let agrees b i = B.elements b = SC.Iset.elements i in
      agrees bx ix
      && agrees (B.union bx by) (SC.Iset.union ix iy)
      && agrees (B.inter bx by) (SC.Iset.inter ix iy)
      && agrees (B.diff bx by) (SC.Iset.diff ix iy)
      && B.cardinal bx = SC.Iset.cardinal ix
      && B.inter_cardinal bx by = SC.Iset.cardinal (SC.Iset.inter ix iy)
      && B.diff_cardinal bx by = SC.Iset.cardinal (SC.Iset.diff ix iy)
      && B.subset bx by = SC.Iset.subset ix iy
      && B.disjoint bx by = SC.Iset.disjoint ix iy
      && B.equal bx by = SC.Iset.equal ix iy
      && B.is_empty bx = SC.Iset.is_empty ix
      && List.for_all (B.mem bx) (SC.Iset.elements ix))

let prop_bitset_iteration =
  qcheck ~count:200 "bitset: iter/fold/iter_diff ascending" bitset_gen
    (fun (len, xs, ys) ->
      let bx = B.of_list ~len xs and by = B.of_list ~len ys in
      let via_iter = ref [] in
      B.iter (fun i -> via_iter := i :: !via_iter) bx;
      let via_diff = ref [] in
      B.iter_diff (fun i -> via_diff := i :: !via_diff) bx by;
      List.rev !via_iter = B.elements bx
      && List.rev !via_diff = B.elements (B.diff bx by)
      && B.fold (fun i acc -> acc + i) bx 0
         = List.fold_left ( + ) 0 (B.elements bx))

(* the weighted sums add in ascending element order from 0.0, so they
   have the bits of a fold over [elements]; non-dyadic weights make a
   different order show *)
let prop_bitset_sums =
  qcheck ~count:200 "bitset: sum/sum_inter/sum_diff = fold" bitset_gen
    (fun (len, xs, ys) ->
      let bx = B.of_list ~len xs and by = B.of_list ~len ys in
      let w = Array.init len (fun i -> 0.1 *. float_of_int (1 + (i * 7 mod 13))) in
      let fold b = List.fold_left (fun acc i -> acc +. w.(i)) 0.0 (B.elements b) in
      let same a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
      same (B.sum w bx) (fold bx)
      && same (B.sum_inter w bx by) (fold (B.inter bx by))
      && same (B.sum_diff w bx by) (fold (B.diff bx by)))

let prop_bitset_into_ops =
  qcheck ~count:200 "bitset: *_into match the pure ops" bitset_gen
    (fun (len, xs, ys) ->
      let bx = B.of_list ~len xs and by = B.of_list ~len ys in
      let check_into into_op pure =
        let t = B.copy bx in
        into_op ~into:t by;
        B.equal t (pure bx by)
      in
      check_into B.union_into B.union
      && check_into B.inter_into B.inter
      && check_into B.diff_into B.diff)

(* ---- Pos-Neg ---- *)

let pn_instance sets ~num_pos ~num_neg =
  SC.Pos_neg.make_unit ~num_pos ~num_neg
    (List.mapi
       (fun i (pos, neg) ->
         { SC.Pos_neg.label = Printf.sprintf "C%d" i; pos = iset pos; neg = iset neg })
       sets)

let test_pn_empty_choice () =
  let t = pn_instance ~num_pos:2 ~num_neg:1 [ ([ 0 ], [ 0 ]) ] in
  let s = SC.Pos_neg.solution_of t [] in
  check_float "cost = uncovered positives" 2.0 s.SC.Pos_neg.cost

let test_pn_exact_tradeoff () =
  (* covering positive 0 costs negative 0; leaving it uncovered costs 1:
     tie — exact must find cost 1. Positive 1 is free via set 1. *)
  let t = pn_instance ~num_pos:2 ~num_neg:1 [ ([ 0 ], [ 0 ]); ([ 1 ], []) ] in
  let s = SC.Pos_neg.solve_exact t in
  check_float "optimal" 1.0 s.SC.Pos_neg.cost

let test_pn_exact_prefers_cover () =
  (* cover both positives with one negative: cost 1 < leaving them (2) *)
  let t = pn_instance ~num_pos:2 ~num_neg:1 [ ([ 0; 1 ], [ 0 ]) ] in
  let s = SC.Pos_neg.solve_exact t in
  check_float "optimal" 1.0 s.SC.Pos_neg.cost;
  Alcotest.(check (list int)) "chosen" [ 0 ] s.SC.Pos_neg.chosen

let pn_gen =
  QCheck2.Gen.(
    int_range 0 10_000 |> map (fun seed ->
        let rng = Util.rng seed in
        Workload.Rbsc_gen.pos_neg ~rng ~num_pos:(1 + Random.State.int rng 5)
          ~num_neg:(1 + Random.State.int rng 5)
          ~num_sets:(1 + Random.State.int rng 5)
          ~pos_density:0.4 ~neg_density:0.3))

let prop_pn_reduction_preserves_cost =
  (* Miettinen's reduction: solving the RBSC image exactly yields the PNPSC
     optimum, mapped back *)
  qcheck ~count:100 "PNPSC -> RBSC reduction is cost-preserving" pn_gen (fun t ->
      let rb = SC.Pos_neg.to_red_blue t in
      match SC.Red_blue.solve_exact rb with
      | None -> false (* singleton sets always make it coverable *)
      | Some rb_opt ->
        let mapped = SC.Pos_neg.of_red_blue_solution t rb_opt in
        let direct = SC.Pos_neg.solve_exact t in
        feq rb_opt.SC.Red_blue.cost direct.SC.Pos_neg.cost
        && feq mapped.SC.Pos_neg.cost direct.SC.Pos_neg.cost)

let prop_pn_approx_sound =
  qcheck ~count:100 "PNPSC approx >= exact" pn_gen (fun t ->
      let approx = SC.Pos_neg.solve_approx t in
      let exact = SC.Pos_neg.solve_exact t in
      approx.SC.Pos_neg.cost +. 1e-9 >= exact.SC.Pos_neg.cost)

let prop_rb_to_pn_forces_coverage =
  (* reverse reduction: positives are priced so high that an optimal PNPSC
     solution covers all of them, matching the RBSC optimum *)
  qcheck ~count:60 "RBSC -> PNPSC reduction preserves the optimum" rb_gen (fun t ->
      match SC.Red_blue.solve_exact t with
      | None -> true
      | Some rb_opt ->
        let pn = SC.Pos_neg.of_red_blue t in
        let pn_opt = SC.Pos_neg.solve_exact pn in
        SC.Iset.is_empty pn_opt.SC.Pos_neg.pos_uncovered
        && feq pn_opt.SC.Pos_neg.cost rb_opt.SC.Red_blue.cost)

let suite =
  [
    Alcotest.test_case "rb: feasibility" `Quick test_rb_feasibility;
    Alcotest.test_case "rb: uncoverable" `Quick test_rb_uncoverable;
    Alcotest.test_case "rb: exact simple" `Quick test_rb_exact_simple;
    Alcotest.test_case "rb: exact zero cost" `Quick test_rb_exact_zero_cost;
    Alcotest.test_case "rb: weighted reds" `Quick test_rb_weighted;
    Alcotest.test_case "rb: out-of-range rejected" `Quick test_rb_out_of_range;
    prop_approx_feasible_and_bounded;
    prop_lowdeg_ratio;
    prop_solution_of_consistent;
    Alcotest.test_case "bitset: basics" `Quick test_bitset_basics;
    prop_bitset_matches_iset;
    prop_bitset_iteration;
    prop_bitset_sums;
    prop_bitset_into_ops;
    Alcotest.test_case "pn: empty choice cost" `Quick test_pn_empty_choice;
    Alcotest.test_case "pn: exact tradeoff" `Quick test_pn_exact_tradeoff;
    Alcotest.test_case "pn: exact prefers covering" `Quick test_pn_exact_prefers_cover;
    prop_pn_reduction_preserves_cost;
    prop_pn_approx_sound;
    prop_rb_to_pn_forces_coverage;
  ]
