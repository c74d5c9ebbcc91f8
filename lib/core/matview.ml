module R = Relational

type t = {
  db : R.Instance.t;
  queries : Cq.Query.t list;
  views : R.Tuple.Set.t Smap.t;
}

let create db queries =
  let schema = R.Instance.schema db in
  List.iter (Cq.Query.check schema) queries;
  let views =
    List.fold_left
      (fun m (q : Cq.Query.t) -> Smap.add q.name (Cq.Eval.evaluate db q) m)
      Smap.empty queries
  in
  { db; queries; views }

let db t = t.db
let queries t = t.queries

let view t name =
  match Smap.find_opt name t.views with
  | Some v -> v
  | None -> invalid_arg ("Matview.view: unknown query " ^ name)

let delete t dd =
  let views =
    Smap.mapi
      (fun name old ->
        let q = List.find (fun (q : Cq.Query.t) -> q.name = name) t.queries in
        Cq.Maintain.refresh t.db q ~view:old dd)
      t.views
  in
  { t with db = R.Instance.delete t.db dd; views }

let insert t st =
  let views =
    Smap.mapi
      (fun name old ->
        let q = List.find (fun (q : Cq.Query.t) -> q.name = name) t.queries in
        Cq.Maintain.extend t.db q ~view:old st)
      t.views
  in
  { t with db = R.Instance.add_stuple t.db st; views }

let insert_all t sts = R.Stuple.Set.fold (fun st acc -> insert acc st) sts t

let of_views db queries views = { db; queries; views }

let problem ~requests ?weights t =
  match Delta_request.validate ~views:t.views requests with
  | Error _ as e -> e
  | Ok () ->
    Ok
      (Problem.make ~db:t.db ~queries:t.queries
         ~deletions:(Delta_request.to_legacy requests)
         ?weights ~allow_non_key_preserving:true ())
