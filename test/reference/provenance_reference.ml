(* The fold-based unique-witness index build, moved verbatim from
   lib/core/provenance.ml: it folds each query's answers into a map,
   adds every witness row one at a time and fills [containing] by one
   [Map.update] per (witness member, view tuple) pair. The bulk build
   must match it map for map. Its maps come back as a record of their
   own, because [Provenance.t] is private. The answers come from the
   reference join ([Eval_reference.provenance]), not from [Cq.Eval],
   so a fault in the compiled join cannot hide in both builds. *)

module R = Relational
open Deleprop

type t = {
  views : R.Tuple.Set.t Smap.t;
  witness : R.Stuple.Set.t Vtuple.Map.t;
  witness_path : R.Stuple.t list Vtuple.Map.t;
  containing : Vtuple.Set.t R.Stuple.Map.t;
  bad : Vtuple.Set.t;
  preserved : Vtuple.Set.t;
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

(* Raises [Provenance.Ambiguous_witness] on the least answer (in query
   order, then tuple order) with two derivations. *)
let build (problem : Problem.t) =
  let db = problem.Problem.db in
  let views, witness, witness_path =
    List.fold_left
      (fun (views, witness, witness_path) (q : Cq.Query.t) ->
        let prov = Eval_reference.provenance db q in
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
                raise (Provenance.Ambiguous_witness vt))
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
  { views; witness; witness_path; containing; bad; preserved = Vtuple.Set.diff all bad }
