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

let build (problem : Problem.t) =
  let db = problem.Problem.db in
  let views, witness, witness_path =
    List.fold_left
      (fun (views, witness, witness_path) (q : Cq.Query.t) ->
        let prov = Cq.Eval.provenance db q in
        let view =
          R.Tuple.Map.fold (fun t _ acc -> R.Tuple.Set.add t acc) prov R.Tuple.Set.empty
        in
        let witness, witness_path =
          R.Tuple.Map.fold
            (fun tup ws (witness, witness_path) ->
              let vt = Vtuple.make q.name tup in
              match ws with
              | [ w ] ->
                ( Vtuple.Map.add vt (Cq.Eval.witness_set w) witness,
                  Vtuple.Map.add vt (path_of_witness w) witness_path )
              | [] -> assert false
              | _ :: _ :: _ ->
                (* distinct assignments, same head tuple *)
                raise (Ambiguous_witness vt))
            prov (witness, witness_path)
        in
        (Smap.add q.name view views, witness, witness_path))
      (Smap.empty, Vtuple.Map.empty, Vtuple.Map.empty)
      problem.Problem.queries
  in
  (* total [containing] map: every tuple of D gets an entry *)
  let containing =
    R.Instance.fold
      (fun st acc -> R.Stuple.Map.add st Vtuple.Set.empty acc)
      db R.Stuple.Map.empty
  in
  let containing =
    Vtuple.Map.fold
      (fun vt ws acc ->
        R.Stuple.Set.fold
          (fun st acc ->
            R.Stuple.Map.update st
              (fun cur -> Some (Vtuple.Set.add vt (Option.value ~default:Vtuple.Set.empty cur)))
              acc)
          ws acc)
      witness containing
  in
  let bad =
    Smap.fold
      (fun qname ts acc ->
        R.Tuple.Set.fold (fun t acc -> Vtuple.Set.add (Vtuple.make qname t) acc) ts acc)
      problem.Problem.deletions Vtuple.Set.empty
  in
  let all =
    Smap.fold
      (fun qname view acc ->
        R.Tuple.Set.fold (fun t acc -> Vtuple.Set.add (Vtuple.make qname t) acc) view acc)
      views Vtuple.Set.empty
  in
  { problem; views; witness; witness_path; containing;
    bad; preserved = Vtuple.Set.diff all bad }

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
