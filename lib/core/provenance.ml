module R = Relational

type t = {
  problem : Problem.t;
  views : R.Tuple.Set.t Smap.t;
  witness : R.Stuple.Set.t Vtuple.Map.t;
  witness_path : R.Stuple.t list Vtuple.Map.t;
  containing : Vtuple.Set.t R.Stuple.Map.t;
  bad : Vtuple.Set.t;
  preserved : Vtuple.Set.t;
}

exception Ambiguous_witness of Vtuple.t

type interning = {
  sorted_stuples : R.Stuple.t array;
  sorted_vtuples : Vtuple.t array;
  witness_rows : int array array;
}

(* body order, consecutive duplicates collapsed (self-join reusing a
   tuple) — the [witness_path] entry of one witness *)
let path_of_witness (w : Cq.Eval.witness) =
  Array.to_list w
  |> List.fold_left
       (fun acc st ->
         match acc with
         | prev :: _ when R.Stuple.equal prev st -> acc
         | _ -> st :: acc)
       []
  |> List.rev

(* A map over n keys given in ascending order, [key i] -> [value i].
   Each [add] would copy the path to the rightmost leaf, O(n log n)
   nodes in all; [union] of two halves whose key ranges do not overlap
   only splits along the spines where they meet, so the whole build is
   linear (about 62 words per key at 6 000 and at 24 000 keys, where
   ascending [add]s take 88 and 100). *)
module Ascending (M : Map.S) = struct
  let rec of_range key value lo hi =
    if hi - lo = 0 then M.empty
    else if hi - lo = 1 then M.singleton (key lo) (value lo)
    else
      let mid = (lo + hi) / 2 in
      M.union (fun _ v _ -> Some v) (of_range key value lo mid) (of_range key value mid hi)

  let init n key value = of_range key value 0 n
end

module Vtuple_map = Ascending (Vtuple.Map)
module Stuple_map = Ascending (R.Stuple.Map)

(* [n] source tuples folded in ascending order, interned: sid -> tuple,
   and the table back *)
let intern_stuples n fold =
  let stuples = Array.make n (R.Stuple.make "" (R.Tuple.of_list [])) in
  let sids = R.Stuple.Tbl.create (2 * n + 1) in
  ignore
    (fold
       (fun st sid ->
         stuples.(sid) <- st;
         R.Stuple.Tbl.add sids st sid;
         sid + 1)
       0
      : int);
  (stuples, sids)

(* a witness set as its sids: the set's order is Stuple.compare order,
   so the row ascends, and a self-join's repeated tuple is in it once *)
let row_of sids ws =
  let row = Array.make (R.Stuple.Set.cardinal ws) 0 in
  ignore
    (R.Stuple.Set.fold
       (fun st i ->
         row.(i) <- R.Stuple.Tbl.find sids st;
         i + 1)
       ws 0
      : int);
  row

(* One query's derivations as (answer, the sids of its body tuples in
   body order), sorted by answer: two derivations of one answer are
   then adjacent, so the first such pair names the query's least
   ambiguous answer. When the join already yields them in head order
   (one pass checks), the sort is skipped. *)
let sorted_answers db sids (q : Cq.Query.t) =
  let rels = Array.of_list (List.map (fun (a : Cq.Atom.t) -> a.Cq.Atom.rel) q.Cq.Query.body) in
  let acc = ref [] in
  Cq.Eval.iter (Cq.Eval.compile db q) (fun answer body ->
      let w = Array.mapi (fun i t -> R.Stuple.Tbl.find sids (R.Stuple.make rels.(i) t)) body in
      acc := (answer, w) :: !acc);
  let ms = Array.of_list (List.rev !acc) in
  let rec ascending i =
    i >= Array.length ms || (R.Tuple.compare (fst ms.(i - 1)) (fst ms.(i)) <= 0 && ascending (i + 1))
  in
  if not (ascending 1) then Array.stable_sort (fun (a, _) (b, _) -> R.Tuple.compare a b) ms;
  for i = 1 to Array.length ms - 1 do
    if R.Tuple.equal (fst ms.(i - 1)) (fst ms.(i)) then
      raise (Ambiguous_witness (Vtuple.make q.Cq.Query.name (fst ms.(i))))
  done;
  ms

(* a derivation's row: its body sids ascending, a self-join's repeated
   tuple once. A body has a handful of atoms, so an insertion sort in
   the copy: sorting a list instead allocated 254 of the 2 581 kw of a
   6 000-answer build, and Array.sort raises an allocated exception per
   sift *)
let row_of_body w =
  let row = Array.copy w in
  for i = 1 to Array.length row - 1 do
    let x = row.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && row.(!j) > x do
      row.(!j + 1) <- row.(!j);
      decr j
    done;
    row.(!j + 1) <- x
  done;
  let n = ref 0 in
  Array.iter
    (fun sid ->
      if !n = 0 || row.(!n - 1) <> sid then begin
        row.(!n) <- sid;
        incr n
      end)
    row;
  if !n = Array.length row then row else Array.sub row 0 !n

(* [path_of_witness] over body sids, read off D's interned records *)
let path_of_body stuples w =
  let rec go i =
    if i = Array.length w then []
    else if i > 0 && w.(i) = w.(i - 1) then go (i + 1)
    else stuples.(w.(i)) :: go (i + 1)
  in
  go 0

let build_interned (problem : Problem.t) =
  let db = problem.Problem.db in
  (* Instance.fold yields Stuple.compare order *)
  let stuples, sids = intern_stuples (R.Instance.size db) (fun f -> R.Instance.fold f db) in
  (* each query's sorted answers, checked in query order; the runs in
     name order concatenate to Vtuple.compare order *)
  let runs =
    List.fold_left
      (fun acc (q : Cq.Query.t) -> (q.Cq.Query.name, sorted_answers db sids q) :: acc)
      [] problem.Problem.queries
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let nv = List.fold_left (fun n (_, ms) -> n + Array.length ms) 0 runs in
  let vtuples = Array.make nv (Vtuple.make "" (R.Tuple.of_list [])) in
  let paths = Array.make nv [] in
  let sets = Array.make nv R.Stuple.Set.empty in
  let rows = Array.make nv [||] in
  let vid = ref 0 in
  List.iter
    (fun (name, ms) ->
      Array.iter
        (fun (tup, w) ->
          let row = row_of_body w in
          vtuples.(!vid) <- Vtuple.make name tup;
          paths.(!vid) <- path_of_body stuples w;
          sets.(!vid) <-
            Array.fold_left (fun s sid -> R.Stuple.Set.add stuples.(sid) s) R.Stuple.Set.empty row;
          rows.(!vid) <- row;
          incr vid)
        ms)
    runs;
  let witness_path = Vtuple_map.init nv (Array.get vtuples) (Array.get paths) in
  (* the sibling map: [Map.map] keeps the skeleton's shape and passes
     its bindings in ascending key order, so a counter walks the vids *)
  let vid = ref (-1) in
  let witness =
    Vtuple.Map.map
      (fun _ ->
        incr vid;
        sets.(!vid))
      witness_path
  in
  let views =
    List.fold_left
      (fun acc (name, ms) ->
        Smap.add name
          (R.Tuple.Set.of_list (Array.fold_right (fun (t, _) l -> t :: l) ms []))
          acc)
      Smap.empty runs
  in
  (* [containing] inverts the witness rows; consing in descending vid
     leaves each row ascending *)
  let inv = Array.make (Array.length stuples) [] in
  for v = nv - 1 downto 0 do
    Array.iter (fun sid -> inv.(sid) <- vtuples.(v) :: inv.(sid)) rows.(v)
  done;
  let containing =
    Stuple_map.init (Array.length stuples) (Array.get stuples) (fun sid ->
        Vtuple.Set.of_list inv.(sid))
  in
  let bad =
    Smap.fold
      (fun qname ts acc ->
        R.Tuple.Set.fold (fun t acc -> Vtuple.Set.add (Vtuple.make qname t) acc) ts acc)
      problem.Problem.deletions Vtuple.Set.empty
  in
  let preserved = Vtuple.Set.diff (Vtuple.Set.of_list (Array.to_list vtuples)) bad in
  ( { problem; views; witness; witness_path; containing; bad; preserved },
    { sorted_stuples = stuples; sorted_vtuples = vtuples; witness_rows = rows } )

let build problem = fst (build_interned problem)

(* [containing] is total on D and [witness] on V, and both traverse in
   ascending key order *)
let interning t =
  let stuples, sids =
    intern_stuples (R.Stuple.Map.cardinal t.containing) (fun f ->
        R.Stuple.Map.fold (fun st _ acc -> f st acc) t.containing)
  in
  let nv = Vtuple.Map.cardinal t.witness in
  let vtuples = Array.make nv (Vtuple.make "" (R.Tuple.of_list [])) in
  let rows = Array.make nv [||] in
  ignore
    (Vtuple.Map.fold
       (fun vt ws vid ->
         vtuples.(vid) <- vt;
         rows.(vid) <- row_of sids ws;
         vid + 1)
       t.witness 0
      : int);
  { sorted_stuples = stuples; sorted_vtuples = vtuples; witness_rows = rows }

let all_vtuples t = Vtuple.Set.union t.bad t.preserved

let witness_of t vt =
  match Vtuple.Map.find_opt vt t.witness with
  | Some w -> w
  | None -> invalid_arg (Format.asprintf "Provenance.witness_of: unknown %a" Vtuple.pp vt)

let vtuples_containing t st =
  Option.value ~default:Vtuple.Set.empty (R.Stuple.Map.find_opt st t.containing)

let kills t dd =
  R.Stuple.Set.fold
    (fun st acc -> Vtuple.Set.union acc (vtuples_containing t st))
    dd Vtuple.Set.empty

let candidates t =
  Vtuple.Set.fold
    (fun vt acc -> R.Stuple.Set.union acc (witness_of t vt))
    t.bad R.Stuple.Set.empty

(* ---- incremental maintenance ----

   The index splits cleanly along the ΔV axis: [views], [witness],
   [witness_path] and [containing] depend only on (D, Q), while [bad],
   [preserved] and [problem.deletions] depend on ΔV. Re-targeting the
   deletions therefore reuses every map; deleting source tuples shrinks
   the maps by exactly the killed rows. Both constructions are checked
   bit-identical to [build] on the patched problem by the engine's
   differential property suite. *)

let with_deletions t (reqs : Delta_request.t list) =
  let deletions =
    List.fold_left
      (fun acc (r : Delta_request.t) ->
        let prev =
          Option.value ~default:R.Tuple.Set.empty (Smap.find_opt r.Delta_request.view acc)
        in
        Smap.add r.Delta_request.view
          (R.Tuple.Set.union prev (R.Tuple.Set.of_list r.Delta_request.tuples))
          acc)
      Smap.empty reqs
  in
  let bad =
    Smap.fold
      (fun qname ts acc ->
        R.Tuple.Set.fold
          (fun tup acc ->
            let vt = Vtuple.make qname tup in
            if not (Vtuple.Map.mem vt t.witness) then
              invalid_arg
                (Format.asprintf "Provenance.with_deletions: unknown view tuple %a"
                   Vtuple.pp vt);
            Vtuple.Set.add vt acc)
          ts acc)
      deletions Vtuple.Set.empty
  in
  let all = all_vtuples t in
  {
    t with
    problem = Problem.patch ~db:t.problem.Problem.db ~deletions t.problem;
    bad;
    preserved = Vtuple.Set.diff all bad;
  }

let delete t dd =
  let killed = kills t dd in
  let views =
    Vtuple.Set.fold
      (fun vt acc ->
        Smap.update vt.Vtuple.query
          (Option.map (R.Tuple.Set.remove vt.Vtuple.tuple))
          acc)
      killed t.views
  in
  let witness = Vtuple.Set.fold (fun vt m -> Vtuple.Map.remove vt m) killed t.witness in
  let witness_path =
    Vtuple.Set.fold (fun vt m -> Vtuple.Map.remove vt m) killed t.witness_path
  in
  let containing =
    (* deleted tuples lose their rows; surviving members of each killed
       witness lose that view tuple from theirs *)
    let c = R.Stuple.Set.fold (fun st m -> R.Stuple.Map.remove st m) dd t.containing in
    Vtuple.Set.fold
      (fun vt c ->
        R.Stuple.Set.fold
          (fun st c ->
            if R.Stuple.Set.mem st dd then c
            else R.Stuple.Map.update st (Option.map (Vtuple.Set.remove vt)) c)
          (witness_of t vt) c)
      killed c
  in
  let bad = Vtuple.Set.diff t.bad killed in
  let preserved = Vtuple.Set.diff t.preserved killed in
  let db = R.Instance.delete t.problem.Problem.db dd in
  let deletions =
    Smap.fold
      (fun qname ts acc ->
        let ts' =
          R.Tuple.Set.filter
            (fun tup -> not (Vtuple.Set.mem (Vtuple.make qname tup) killed))
            ts
        in
        if R.Tuple.Set.is_empty ts' then acc else Smap.add qname ts' acc)
      t.problem.Problem.deletions Smap.empty
  in
  {
    problem = Problem.patch ~db ~deletions t.problem;
    views;
    witness;
    witness_path;
    containing;
    bad;
    preserved;
  }

let insert t st =
  let db = t.problem.Problem.db in
  let db' = R.Instance.add_stuple db st in
  (* the new tuple gets its [containing] row up front — the map stays
     total on D even when [st] joins into nothing *)
  let containing = R.Stuple.Map.add st Vtuple.Set.empty t.containing in
  let views, witness, witness_path, containing, gained =
    List.fold_left
      (fun acc (q : Cq.Query.t) ->
        R.Tuple.Map.fold
          (fun tup ws (views, witness, witness_path, containing, gained) ->
            let vt = Vtuple.make q.Cq.Query.name tup in
            match ws with
            | [ w ] when not (Vtuple.Map.mem vt witness) ->
              let wset = Cq.Eval.witness_set w in
              ( Smap.update vt.Vtuple.query
                  (Option.map (R.Tuple.Set.add tup))
                  views,
                Vtuple.Map.add vt wset witness,
                Vtuple.Map.add vt (path_of_witness w) witness_path,
                R.Stuple.Set.fold
                  (fun member c ->
                    R.Stuple.Map.update member
                      (fun cur ->
                        Some
                          (Vtuple.Set.add vt
                             (Option.value ~default:Vtuple.Set.empty cur)))
                      c)
                  wset containing,
                Vtuple.Set.add vt gained )
          | _ ->
            (* ≥ 2 new witnesses, or a second derivation of an
               existing answer: the extended instance is no longer
               key preserving, exactly what [build] on it raises *)
            raise (Ambiguous_witness vt))
          (Cq.Maintain.gained_answers db q st)
          acc)
      (t.views, t.witness, t.witness_path, containing, Vtuple.Set.empty)
      t.problem.Problem.queries
  in
  (* gained view tuples are never in ΔV (they did not exist when the
     deletions were requested), so [bad] is untouched *)
  let preserved = Vtuple.Set.union t.preserved gained in
  {
    t with
    problem = Problem.patch ~db:db' ~deletions:t.problem.Problem.deletions t.problem;
    views;
    witness;
    witness_path;
    containing;
    preserved;
  }

let restrict t ~stuples ~vtuples ~bad =
  let db =
    R.Stuple.Set.fold
      (fun st acc -> R.Instance.add_stuple acc st)
      stuples
      (R.Instance.empty (R.Instance.schema t.problem.Problem.db))
  in
  let views =
    List.fold_left
      (fun m (q : Cq.Query.t) -> Smap.add q.Cq.Query.name R.Tuple.Set.empty m)
      Smap.empty t.problem.Problem.queries
  in
  let views =
    Vtuple.Set.fold
      (fun vt m ->
        Smap.update vt.Vtuple.query (Option.map (R.Tuple.Set.add vt.Vtuple.tuple)) m)
      vtuples views
  in
  let witness =
    Vtuple.Set.fold
      (fun vt m -> Vtuple.Map.add vt (witness_of t vt) m)
      vtuples Vtuple.Map.empty
  in
  let witness_path =
    Vtuple.Set.fold
      (fun vt m -> Vtuple.Map.add vt (Vtuple.Map.find vt t.witness_path) m)
      vtuples Vtuple.Map.empty
  in
  let containing =
    R.Stuple.Set.fold
      (fun st m ->
        R.Stuple.Map.add st (Vtuple.Set.inter (vtuples_containing t st) vtuples) m)
      stuples R.Stuple.Map.empty
  in
  let preserved = Vtuple.Set.diff vtuples bad in
  let deletions =
    Vtuple.Set.fold
      (fun vt acc ->
        let prev =
          Option.value ~default:R.Tuple.Set.empty (Smap.find_opt vt.Vtuple.query acc)
        in
        Smap.add vt.Vtuple.query (R.Tuple.Set.add vt.Vtuple.tuple prev) acc)
      bad Smap.empty
  in
  {
    problem = Problem.patch ~db ~deletions t.problem;
    views;
    witness;
    witness_path;
    containing;
    bad;
    preserved;
  }

let pp ppf t =
  Format.fprintf ppf "@[<v>bad: %d, preserved: %d@ %a@]" (Vtuple.Set.cardinal t.bad)
    (Vtuple.Set.cardinal t.preserved)
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut (fun ppf (vt, ws) ->
         Format.fprintf ppf "%a <- {%a}" Vtuple.pp vt
           (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
              R.Stuple.pp)
           (R.Stuple.Set.elements ws)))
    (Vtuple.Map.bindings t.witness)
