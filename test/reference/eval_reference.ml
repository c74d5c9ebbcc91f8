(* The backtracking join, moved verbatim from lib/cq/eval.ml: an
   [Env] map from variable names to values extended one binding at a
   time, each atom's candidates read as a list (a key lookup when every
   key position is bound, else the smallest column match, else the
   whole relation), and results concatenated. The compiled join must
   return its matches element for element. One line differs: the
   column match filters a scan, because the column-index lookup it
   called ([Relation.find_by_column]) is gone; a filtered scan yields
   the same tuples in the same ascending order, and keeps this oracle
   off the index the compiled join iterates.

   [evaluate], [provenance] and [gained_answers] are the lib/ versions
   of the same moment, folded over this join's matches. *)

module R = Relational
open Cq
module Env = Map.Make (String)

type witness = R.Stuple.t array

(* Instantiate a term under an environment; None if an unbound variable. *)
let term_value env = function
  | Term.Const c -> Some c
  | Term.Var v -> Env.find_opt v env

(* If every key position of [atom] is bound under [env], return the key
   tuple, enabling an O(log n) unique lookup instead of a scan. *)
let bound_key schema env (atom : Atom.t) =
  let s = R.Schema.Db.find schema atom.rel in
  let rec go acc = function
    | [] -> Some (R.Tuple.of_list (List.rev acc))
    | pos :: rest -> (
      match term_value env atom.args.(pos) with
      | Some v -> go (v :: acc) rest
      | None -> None)
  in
  go [] s.R.Schema.key

(* Extend [env] by unifying [atom] against [tuple]; None on clash. *)
let unify env (atom : Atom.t) tuple =
  let n = Atom.arity atom in
  let rec go i env =
    if i = n then Some env
    else
      let v = R.Tuple.get tuple i in
      match atom.args.(i) with
      | Term.Const c -> if R.Value.equal c v then go (i + 1) env else None
      | Term.Var x -> (
        match Env.find_opt x env with
        | Some v' -> if R.Value.equal v v' then go (i + 1) env else None
        | None -> go (i + 1) (Env.add x v env))
  in
  go 0 env

let instantiate_head env (q : Query.t) =
  let value t =
    match term_value env t with
    | Some v -> v
    | None -> invalid_arg ("Eval: unbound head term in " ^ q.Query.name)
  in
  R.Tuple.of_list (List.map value q.Query.head)

(* the tuples of [rel] whose column [i] holds [v], ascending *)
let column_matches rel i v =
  List.filter (fun t -> R.Value.equal (R.Tuple.get t i) v) (R.Relation.tuples rel)

let matches ?(planned = true) db (q : Query.t) =
  let schema = R.Instance.schema db in
  let atoms = Array.of_list q.Query.body in
  let perm =
    if planned then Plan.order db q else Array.init (Array.length atoms) Fun.id
  in
  let ordered = Array.to_list (Array.map (fun i -> atoms.(i)) perm) in
  let unpermute w =
    (* w follows the planned order; restore original body order *)
    let out = Array.make (Array.length w) w.(0) in
    Array.iteri (fun planned_pos original_pos -> out.(original_pos) <- w.(planned_pos)) perm;
    out
  in
  let rec go env acc_witness = function
    | [] ->
      let w = Array.of_list (List.rev acc_witness) in
      [ (instantiate_head env q, unpermute w) ]
    | (atom : Atom.t) :: rest ->
      let rel = R.Instance.relation db atom.rel in
      let candidates =
        match bound_key schema env atom with
        | Some key -> (
          match R.Relation.find_by_key rel key with
          | Some t -> [ t ]
          | None -> [])
        | None -> (
          (* most selective secondary index over the bound positions *)
          let best = ref None in
          Array.iteri
            (fun i term ->
              match term_value env term with
              | None -> ()
              | Some v ->
                let hits = column_matches rel i v in
                let n = List.length hits in
                (match !best with
                | Some (m, _) when m <= n -> ()
                | _ -> best := Some (n, hits)))
            atom.args;
          match !best with
          | Some (_, hits) -> hits
          | None -> R.Relation.tuples rel)
      in
      List.concat_map
        (fun t ->
          match unify env atom t with
          | Some env' -> go env' (R.Stuple.make atom.rel t :: acc_witness) rest
          | None -> [])
        candidates
  in
  go Env.empty [] ordered

let evaluate ?planned db q =
  List.fold_left
    (fun acc (t, _) -> R.Tuple.Set.add t acc)
    R.Tuple.Set.empty (matches ?planned db q)

let provenance ?planned db q =
  List.fold_left
    (fun acc (t, w) ->
      let ws = Option.value ~default:[] (R.Tuple.Map.find_opt t acc) in
      R.Tuple.Map.add t (w :: ws) acc)
    R.Tuple.Map.empty (matches ?planned db q)

(* lib/cq/maintain.ml's insert dual over this join *)

let specialize (q : Query.t) i (t : R.Tuple.t) =
  let atom = List.nth q.body i in
  match Atom.matches atom t with
  | None -> None
  | Some bindings ->
    let f v =
      List.assoc_opt v bindings |> Option.map (fun value -> Term.Const value)
    in
    Some (Query.substitute f q)

let witness_equal (a : witness) (b : witness) =
  Array.length a = Array.length b
  && (let ok = ref true in
      Array.iteri (fun i st -> if not (R.Stuple.equal st b.(i)) then ok := false) a;
      !ok)

let gained_answers db (q : Query.t) (st : R.Stuple.t) =
  let db' = R.Instance.add_stuple db st in
  List.fold_left
    (fun acc (i, (atom : Atom.t)) ->
      if atom.rel <> st.R.Stuple.rel then acc
      else
        match specialize q i st.R.Stuple.tuple with
        | None -> acc
        | Some q' ->
          List.fold_left
            (fun acc (answer, w) ->
              R.Tuple.Map.update answer
                (fun cur ->
                  let ws = Option.value ~default:[] cur in
                  if List.exists (witness_equal w) ws then Some ws
                  else Some (ws @ [ w ]))
                acc)
            acc (matches db' q'))
    R.Tuple.Map.empty
    (List.mapi (fun i a -> (i, a)) q.body)
