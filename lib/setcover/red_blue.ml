type set = {
  label : string;
  red : Iset.t;
  blue : Iset.t;
}

type t = {
  red_weights : float array;
  num_blue : int;
  sets : set array;
}

let make ~red_weights ~num_blue sets =
  let num_red = Array.length red_weights in
  List.iteri
    (fun i s ->
      let bad_red = Iset.exists (fun r -> r < 0 || r >= num_red) s.red in
      let bad_blue = Iset.exists (fun b -> b < 0 || b >= num_blue) s.blue in
      if bad_red || bad_blue then
        invalid_arg (Printf.sprintf "Red_blue.make: set %d (%s) out of range" i s.label))
    sets;
  { red_weights; num_blue; sets = Array.of_list sets }

let make_unit ~num_red ~num_blue sets =
  make ~red_weights:(Array.make num_red 1.0) ~num_blue sets

let num_red t = Array.length t.red_weights
let num_sets t = Array.length t.sets

type solution = {
  chosen : int list;
  red_covered : Iset.t;
  cost : float;
}

let red_weight t reds = Iset.fold (fun r acc -> acc +. t.red_weights.(r)) reds 0.0

let blue_union t chosen =
  List.fold_left (fun acc i -> Iset.union acc t.sets.(i).blue) Iset.empty chosen

let red_union t chosen =
  List.fold_left (fun acc i -> Iset.union acc t.sets.(i).red) Iset.empty chosen

let is_feasible t chosen = Iset.cardinal (blue_union t chosen) = t.num_blue

let solution_of t chosen =
  if not (is_feasible t chosen) then None
  else
    let red_covered = red_union t chosen in
    Some { chosen = List.sort_uniq Int.compare chosen; red_covered; cost = red_weight t red_covered }

let coverable t = is_feasible t (List.init (num_sets t) Fun.id)

(* ---- exact branch and bound ---- *)

let no_tick () = ()

let solve_exact ?(node_budget = 5_000_000) ?(tick = no_tick) t =
  if not (coverable t) then None
  else begin
    let nodes = ref 0 in
    let best = ref None in
    let best_cost = ref infinity in
    (* sets containing each blue element *)
    let containing = Array.make t.num_blue [] in
    Array.iteri
      (fun i s -> Iset.iter (fun b -> containing.(b) <- i :: containing.(b)) s.blue)
      t.sets;
    let rec go covered_blue covered_red cost chosen =
      incr nodes;
      tick ();
      if !nodes > node_budget then failwith "Red_blue.solve_exact: node budget exceeded";
      if cost >= !best_cost then ()
      else if Iset.cardinal covered_blue = t.num_blue then begin
        best_cost := cost;
        best := Some (List.rev chosen)
      end
      else begin
        (* branch on the uncovered blue element with fewest candidate sets *)
        let target =
          let best_b = ref (-1) and best_n = ref max_int in
          for b = 0 to t.num_blue - 1 do
            if not (Iset.mem b covered_blue) then begin
              let n = List.length containing.(b) in
              if n < !best_n then begin
                best_n := n;
                best_b := b
              end
            end
          done;
          !best_b
        in
        (* order candidates by incremental red weight *)
        let candidates =
          containing.(target)
          |> List.map (fun i ->
                 let extra = Iset.diff t.sets.(i).red covered_red in
                 (i, extra, red_weight t extra))
          |> List.sort (fun (_, _, a) (_, _, b) -> Float.compare a b)
        in
        List.iter
          (fun (i, extra, w) ->
            go
              (Iset.union covered_blue t.sets.(i).blue)
              (Iset.union covered_red extra)
              (cost +. w) (i :: chosen))
          candidates
      end
    in
    go Iset.empty Iset.empty 0.0 [];
    Option.bind !best (solution_of t)
  end

(* ---- the instance packed once per solve ----

   Each set's blue and red members as bitsets and its red weight,
   shared by the coverability test, greedy and every threshold of the
   Peleg sweep. A candidate answer is a [cover] — its chosen sets, their
   red union and its weight summed in ascending red order, as
   [red_weight] sums an Iset — and only the answer a solver returns
   becomes a [solution]. *)

type packed = {
  blue_bs : Bitset.t array;
  red_bs : Bitset.t array;
  set_red_weight : float array;
}

let pack t =
  let bits n members =
    let b = Bitset.create n in
    Iset.iter (Bitset.add b) members;
    b
  in
  {
    blue_bs = Array.map (fun s -> bits t.num_blue s.blue) t.sets;
    red_bs = Array.map (fun s -> bits (num_red t) s.red) t.sets;
    set_red_weight = Array.map (fun s -> red_weight t s.red) t.sets;
  }

let covers t p =
  let covered = Bitset.create t.num_blue in
  Array.iter (Bitset.union_into ~into:covered) p.blue_bs;
  Bitset.cardinal covered = t.num_blue

type cover = {
  c_chosen : int list;
  c_red : Bitset.t;
  c_cost : float;
}

let cover_of t chosen red =
  { c_chosen = chosen; c_red = red; c_cost = Bitset.sum t.red_weights red }

let solution_of_cover c =
  { chosen = List.sort_uniq Int.compare c.c_chosen;
    red_covered = Iset.of_list (Bitset.elements c.c_red);
    cost = c.c_cost }

(* ---- greedy ratio heuristic ---- *)

let greedy ~tick t p =
  let covered_blue = Bitset.create t.num_blue in
  let covered_red = Bitset.create (num_red t) in
  let covered_count = ref 0 in
  let chosen = ref [] in
  while !covered_count < t.num_blue do
    tick ();
    let best = ref (-1) and best_score = ref neg_infinity in
    for i = 0 to num_sets t - 1 do
      let new_blue = Bitset.diff_cardinal p.blue_bs.(i) covered_blue in
      if new_blue > 0 then begin
        (* ascending sum, matching [red_weight] on the Iset path *)
        let new_red = Bitset.sum_diff t.red_weights p.red_bs.(i) covered_red in
        let score = float_of_int new_blue /. (1e-9 +. new_red) in
        if score > !best_score then begin
          best_score := score;
          best := i
        end
      end
    done;
    let i = !best in
    assert (i >= 0) (* coverable *);
    covered_count := !covered_count + Bitset.diff_cardinal p.blue_bs.(i) covered_blue;
    Bitset.union_into ~into:covered_blue p.blue_bs.(i);
    Bitset.union_into ~into:covered_red p.red_bs.(i);
    chosen := i :: !chosen
  done;
  cover_of t !chosen covered_red

(* ---- Peleg's low-degree threshold sweep ---- *)

(* max-heap of (gain, set index): largest gain first, smallest index on
   ties — the same argmax the eager scan of the reference implementation
   selects *)
module Gain_heap = struct
  type t = { mutable a : (int * int) array; mutable n : int }

  let create () = { a = Array.make 16 (0, 0); n = 0 }

  let better ((g1 : int), (i1 : int)) (g2, i2) = g1 > g2 || (g1 = g2 && i1 < i2)

  let push h x =
    if h.n = Array.length h.a then begin
      let a' = Array.make (2 * h.n) (0, 0) in
      Array.blit h.a 0 a' 0 h.n;
      h.a <- a'
    end;
    h.a.(h.n) <- x;
    h.n <- h.n + 1;
    let i = ref (h.n - 1) in
    while !i > 0 && better h.a.(!i) h.a.((!i - 1) / 2) do
      let p = (!i - 1) / 2 in
      let tmp = h.a.(p) in
      h.a.(p) <- h.a.(!i);
      h.a.(!i) <- tmp;
      i := p
    done

  let pop h =
    if h.n = 0 then None
    else begin
      let top = h.a.(0) in
      h.n <- h.n - 1;
      h.a.(0) <- h.a.(h.n);
      let i = ref 0 in
      let continue_ = ref true in
      while !continue_ do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let m = ref !i in
        if l < h.n && better h.a.(l) h.a.(!m) then m := l;
        if r < h.n && better h.a.(r) h.a.(!m) then m := r;
        if !m = !i then continue_ := false
        else begin
          let tmp = h.a.(!m) in
          h.a.(!m) <- h.a.(!i);
          h.a.(!i) <- tmp;
          i := !m
        end
      done;
      Some top
    end
end

let greedy_cover_by_count ~tick t blue_bs allowed =
  (* lazy-decreasing-gain greedy set cover over the blue universe: stale
     heap keys are upper bounds (gains only shrink as coverage grows), so
     a popped set whose recomputed gain equals its key is the true argmax
     — no per-step rescan of every set. Restricted to the [allowed] set
     indices; None when not coverable. *)
  let covered = Bitset.create t.num_blue in
  let covered_count = ref 0 in
  let chosen = ref [] in
  let heap = Gain_heap.create () in
  List.iter
    (fun i ->
      let g = Bitset.cardinal blue_bs.(i) in
      if g > 0 then Gain_heap.push heap (g, i))
    allowed;
  let feasible = ref true in
  let continue_ = ref (!covered_count < t.num_blue) in
  while !continue_ do
    tick ();
    match Gain_heap.pop heap with
    | None ->
      feasible := false;
      continue_ := false
    | Some (g, i) ->
      let g' = Bitset.diff_cardinal blue_bs.(i) covered in
      if g' = g then begin
        covered_count := !covered_count + g';
        Bitset.union_into ~into:covered blue_bs.(i);
        chosen := i :: !chosen;
        if !covered_count = t.num_blue then continue_ := false
      end
      else if g' > 0 then Gain_heap.push heap (g', i)
  done;
  if !feasible then Some !chosen else None

(* each threshold's cover is scored on its red bitset; the first
   cheapest one wins *)
let lowdeg ~tick t p =
  let thresholds = Array.to_list p.set_red_weight |> List.sort_uniq Float.compare in
  List.fold_left
    (fun best tau ->
      tick ();
      let allowed =
        List.init (num_sets t) Fun.id |> List.filter (fun i -> p.set_red_weight.(i) <= tau)
      in
      match greedy_cover_by_count ~tick t p.blue_bs allowed with
      | None -> best
      | Some chosen -> (
        let red = Bitset.create (num_red t) in
        List.iter (fun i -> Bitset.union_into ~into:red p.red_bs.(i)) chosen;
        let c = cover_of t chosen red in
        match best with Some b when b.c_cost <= c.c_cost -> best | _ -> Some c))
    None thresholds

let solve_greedy ?(tick = no_tick) t =
  let p = pack t in
  if covers t p then Some (solution_of_cover (greedy ~tick t p)) else None

let solve_lowdeg ?(tick = no_tick) t =
  let p = pack t in
  if covers t p then Option.map solution_of_cover (lowdeg ~tick t p) else None

(* greedy wins a tie *)
let solve_approx ?(tick = no_tick) t =
  let p = pack t in
  if not (covers t p) then None
  else
    let g = greedy ~tick t p in
    match lowdeg ~tick t p with
    | Some l when l.c_cost < g.c_cost -> Some (solution_of_cover l)
    | _ -> Some (solution_of_cover g)

let pp ppf t =
  Format.fprintf ppf "@[<v>red: %d, blue: %d, sets: %d@ %a@]" (num_red t) t.num_blue
    (num_sets t)
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut (fun ppf s ->
         Format.fprintf ppf "%s: red=%a blue=%a" s.label Iset.pp s.red Iset.pp s.blue))
    (Array.to_list t.sets)
