module R = Relational

type plan = {
  deletions : R.Stuple.Set.t;
  insertions : R.Stuple.Set.t;
  lost_good : Vtuple.Set.t;
  spurious : Vtuple.Set.t;
  cost : float;
  repaired : R.Instance.t;
}

type error =
  | Deletion_failed of string
  | Insertion_failed of string
  | Conflicting of string

let pp_error ppf = function
  | Deletion_failed m -> Format.fprintf ppf "deletion half failed: %s" m
  | Insertion_failed m -> Format.fprintf ppf "insertion half failed: %s" m
  | Conflicting m -> Format.fprintf ppf "conflicting plan: %s" m

let solve ~db ~queries ~wrong ~missing ?(weights = Weights.uniform) () =
  (* half 1: deletions, exact, minimum weighted view side-effect *)
  let del_result =
    if List.for_all (fun (_, ts) -> ts = []) wrong then
      Ok (R.Stuple.Set.empty, Vtuple.Set.empty)
    else
      match
        Problem.make ~db ~queries ~deletions:wrong ~weights
          ~allow_non_key_preserving:true ()
      with
      | exception Invalid_argument m -> Error (Deletion_failed m)
      | problem -> (
        match Brute.solve_ground_truth problem with
        | Some r -> Ok (r.Brute.deletion, Lazy.force r.Brute.outcome.Side_effect.side_effect)
        | None -> Error (Deletion_failed "infeasible")
        | exception Invalid_argument m -> Error (Deletion_failed m))
  in
  match del_result with
  | Error e -> Error e
  | Ok (deletions, lost_good) -> (
    let db_after_del = R.Instance.delete db deletions in
    (* half 2: insertions on the repaired database, one target at a time *)
    let rec insert_all db_cur acc_ins acc_spurious = function
      | [] -> Ok (db_cur, acc_ins, acc_spurious)
      | (qname, target) :: rest -> (
        match
          Problem.make ~db:db_cur ~queries ~deletions:[] ~weights
            ~allow_non_key_preserving:true ()
        with
        | exception Invalid_argument m -> Error (Insertion_failed m)
        | base -> (
          match Insertion.solve base ~query:qname ~target with
          | Error Insertion.Already_present ->
            insert_all db_cur acc_ins acc_spurious rest
          | Error e -> Error (Insertion_failed (Format.asprintf "%a" Insertion.pp_error e))
          | Ok r ->
            let db_next =
              R.Stuple.Set.fold
                (fun st acc -> R.Instance.add_stuple acc st)
                r.Insertion.insertions db_cur
            in
            insert_all db_next
              (R.Stuple.Set.union acc_ins r.Insertion.insertions)
              (Vtuple.Set.union acc_spurious r.Insertion.new_views)
              rest))
    in
    match insert_all db_after_del R.Stuple.Set.empty Vtuple.Set.empty missing with
    | Error e -> Error e
    | Ok (repaired, insertions, spurious) ->
      (* consistency: no wrong answer may be derivable again *)
      let resurrection =
        List.concat_map
          (fun (qname, ts) ->
            match List.find_opt (fun (q : Cq.Query.t) -> q.name = qname) queries with
            | None -> []
            | Some q ->
              let view = Cq.Eval.evaluate repaired q in
              List.filter (fun t -> R.Tuple.Set.mem t view) ts)
          wrong
      in
      (match resurrection with
      | t :: _ ->
        Error
          (Conflicting
             (Format.asprintf "insertion re-derives removed answer %a" R.Tuple.pp t))
      | [] ->
        let cost = Weights.total weights lost_good +. Weights.total weights spurious in
        Ok { deletions; insertions; lost_good; spurious; cost; repaired }))
