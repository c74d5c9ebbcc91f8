(* Independent answer check.

   The engine answers from its incrementally patched provenance index;
   this module answers from the queries themselves. [build] evaluates
   every query once with [Cq.Eval.matches] on the generated database,
   keeping every derivation of every answer. Queries are monotone, so on
   any sub-database [D \ G] an answer survives iff one of its derivations
   avoids [G] — [check] uses that to re-evaluate the views on the state
   after a round and after its proposed ΔD, and [check_full] re-runs
   [Cq.Eval.evaluate] literally on [D \ G] to confirm the shortcut. *)

module R = Relational
module D = Deleprop

type t = {
  db : R.Instance.t;
  queries : Cq.Query.t list;
  answers : (string * R.Tuple.t) array;
  derivations : R.Stuple.Set.t list array;
  id : (string * R.Tuple.t, int) Hashtbl.t;
  containing : (R.Stuple.t, int list) Hashtbl.t;
}

let build db queries =
  let id = Hashtbl.create 65536 and containing = Hashtbl.create 65536 in
  let answers = ref [] and derivations = Hashtbl.create 65536 and n = ref 0 in
  List.iter
    (fun (q : Cq.Query.t) ->
      List.iter
        (fun (ans, w) ->
          let key = (q.Cq.Query.name, ans) in
          let i =
            match Hashtbl.find_opt id key with
            | Some i -> i
            | None ->
              let i = !n in
              incr n;
              Hashtbl.add id key i;
              answers := key :: !answers;
              i
          in
          let w = Cq.Eval.witness_set w in
          Hashtbl.replace derivations i
            (w :: (try Hashtbl.find derivations i with Not_found -> []));
          R.Stuple.Set.iter
            (fun st ->
              let l = try Hashtbl.find containing st with Not_found -> [] in
              if not (List.mem i l) then Hashtbl.replace containing st (i :: l))
            w)
        (Cq.Eval.matches db q))
    queries;
  {
    db;
    queries;
    answers = Array.of_list (List.rev !answers);
    derivations = Array.init !n (fun i -> Hashtbl.find derivations i);
    id;
    containing;
  }

let alive t gone i = List.exists (fun w -> R.Stuple.Set.disjoint w gone) t.derivations.(i)

(* [check t ~removed ~requests ~deleted ~cost] — the state is the
   generated database minus [removed]; the answer deletes [deleted] and
   reports side-effect [cost] (unit weights). [Error] names the first
   violation. *)
let check t ~removed ~requests ~deleted ~cost =
  let gone = R.Stuple.Set.union removed deleted in
  let requested = Hashtbl.create 64 in
  let err = ref None in
  let fail msg = if !err = None then err := Some msg in
  R.Stuple.Set.iter
    (fun st ->
      if (not (R.Instance.mem t.db st)) || R.Stuple.Set.mem st removed then
        fail (Printf.sprintf "deletes %s, which is not in the database" (R.Stuple.to_string st)))
    deleted;
  List.iter
    (fun (rq : D.Delta_request.t) ->
      List.iter
        (fun tup ->
          match Hashtbl.find_opt t.id (rq.D.Delta_request.view, tup) with
          | None -> fail "requested tuple is no answer of the generated database"
          | Some i ->
            Hashtbl.replace requested i ();
            if not (alive t removed i) then fail "requested tuple was already gone"
            else if alive t gone i then
              fail
                (Printf.sprintf "requested %s%s survives the answer" rq.D.Delta_request.view
                   (R.Tuple.to_string tup)))
        rq.D.Delta_request.tuples)
    requests;
  let killed = Hashtbl.create 64 in
  R.Stuple.Set.iter
    (fun st ->
      List.iter
        (fun i ->
          if (not (Hashtbl.mem requested i)) && alive t removed i && not (alive t gone i) then
            Hashtbl.replace killed i ())
        (try Hashtbl.find t.containing st with Not_found -> []))
    deleted;
  let side = float_of_int (Hashtbl.length killed) in
  if Float.abs (side -. cost) > 1e-6 then
    fail (Printf.sprintf "reported cost %g, recomputed side effect %g" cost side);
  match !err with None -> Ok () | Some m -> Error m

(* the literal re-evaluation: every view on [D \ gone] equals the
   survivors [check] would predict *)
let check_full t ~gone =
  let db' = R.Instance.delete t.db gone in
  let predicted = Hashtbl.create 16 in
  Array.iteri
    (fun i (q, tup) ->
      if alive t gone i then
        Hashtbl.replace predicted q
          (R.Tuple.Set.add tup (try Hashtbl.find predicted q with Not_found -> R.Tuple.Set.empty)))
    t.answers;
  List.for_all
    (fun (q : Cq.Query.t) ->
      let expect = try Hashtbl.find predicted q.Cq.Query.name with Not_found -> R.Tuple.Set.empty in
      R.Tuple.Set.equal expect (Cq.Eval.evaluate db' q))
    t.queries
