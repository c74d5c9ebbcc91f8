module R = Relational

type witness = R.Stuple.t array

let witness_set w = Array.fold_left (fun acc st -> R.Stuple.Set.add st acc) R.Stuple.Set.empty w

(* How one argument of an atom meets a candidate tuple. [Const] and
   [Bound] are known before the atom is visited, so only they may pick
   the key or column index the candidates come from; [Bind] and [Again]
   are decided by the candidate itself. *)
type arg =
  | Const of R.Value.t  (* the column must hold this constant *)
  | Bound of int        (* must equal the slot an earlier atom bound *)
  | Bind of int         (* first occurrence of its variable: binds the slot *)
  | Again of int        (* must equal the slot an earlier column of this atom bound *)

(* where an atom's candidates come from *)
type access =
  | Key of int array      (* every key position known: one key lookup *)
  | Columns of int array  (* the known positions: the smallest column index among them *)
  | Scan                  (* nothing known: the whole relation *)

type step = {
  atom : int;  (* position in the body *)
  rel : R.Relation.t;
  args : arg array;
  access : access;
}

type head_term = H_const of R.Value.t | H_slot of int | H_unbound

type plan = {
  name : string;  (* the query's, for the unbound-head error *)
  steps : step array;  (* plan order *)
  slots : int;
  head : head_term array;
}

let compile ?(planned = true) db (q : Query.t) =
  let fail fmt = Format.kasprintf invalid_arg ("Eval.compile: query %s: " ^^ fmt) q.Query.name in
  let atoms = Array.of_list q.Query.body in
  if Array.length atoms = 0 then fail "empty body";
  let rels =
    Array.map
      (fun (a : Atom.t) ->
        match R.Instance.relation_opt db a.rel with
        | None -> fail "atom %a: unknown relation %s" Atom.pp a a.rel
        | Some rel ->
          let arity = (R.Relation.schema rel).R.Schema.arity in
          if Atom.arity a <> arity then
            fail "atom %a: %s has arity %d, the atom %d" Atom.pp a a.rel arity (Atom.arity a);
          rel)
      atoms
  in
  let order = if planned then Plan.order db q else Array.init (Array.length atoms) Fun.id in
  (* slots are numbered in binding order, so a slot below the count at
     an atom's start was bound by an earlier atom *)
  let vars = ref [] and count = ref 0 in
  let slot_of v = List.assoc_opt v !vars in
  let compile_atom i =
    let a = atoms.(i) in
    let before = !count in
    let args =
      Array.map
        (function
          | Term.Const c -> Const c
          | Term.Var v -> (
            match slot_of v with
            | Some s -> if s < before then Bound s else Again s
            | None ->
              let s = !count in
              vars := (v, s) :: !vars;
              incr count;
              Bind s))
        a.Atom.args
    in
    let known pos = match args.(pos) with Const _ | Bound _ -> true | Bind _ | Again _ -> false in
    let key = (R.Relation.schema rels.(i)).R.Schema.key in
    let access =
      if List.for_all known key then Key (Array.of_list key)
      else
        match List.filter known (List.init (Array.length args) Fun.id) with
        | [] -> Scan
        | cols -> Columns (Array.of_list cols)
    in
    { atom = i; rel = rels.(i); args; access }
  in
  let steps = Array.map compile_atom order in
  let head =
    Array.of_list
      (List.map
         (function
           | Term.Const c -> H_const c
           | Term.Var v -> ( match slot_of v with Some s -> H_slot s | None -> H_unbound))
         q.Query.head)
  in
  { name = q.Query.name; steps; slots = !count; head }

(* the value a known argument stands for *)
let known_value slots = function
  | Const c -> c
  | Bound s -> slots.(s)
  | Bind _ | Again _ -> assert false

(* check [t] against [args] from position [i], binding first occurrences *)
let rec unify slots args t i =
  i = Array.length args
  ||
  let v = R.Tuple.get t i in
  (match args.(i) with
  | Const c -> R.Value.equal c v
  | Bound s | Again s -> R.Value.equal slots.(s) v
  | Bind s ->
    slots.(s) <- v;
    true)
  && unify slots args t (i + 1)

(* the smallest of the known columns' index sets, the first on a tie *)
let smallest_column slots s cols =
  let set pos = R.Relation.column_set s.rel pos (known_value slots s.args.(pos)) in
  if Array.length cols = 1 then set cols.(0)
  else
    snd
      (Array.fold_left
         (fun ((n, _) as best) pos ->
           let c = set pos in
           let m = R.Tuple.Set.cardinal c in
           if m < n then (m, c) else best)
         (max_int, R.Tuple.Set.empty) cols)

let iter plan f =
  let steps = plan.steps in
  let n = Array.length steps in
  let slots = Array.make plan.slots (R.Value.Int 0) in
  let body = Array.make n (R.Tuple.of_list []) in
  let answer () =
    R.Tuple.init (Array.length plan.head) (fun j ->
        match plan.head.(j) with
        | H_const c -> c
        | H_slot s -> slots.(s)
        | H_unbound -> invalid_arg ("Eval: unbound head term in " ^ plan.name))
  in
  let rec level i =
    if i = n then f (answer ()) body
    else
      let s = steps.(i) in
      let visit t =
        if unify slots s.args t 0 then begin
          body.(s.atom) <- t;
          level (i + 1)
        end
      in
      match s.access with
      | Key pos -> (
        let key = R.Tuple.init (Array.length pos) (fun j -> known_value slots s.args.(pos.(j))) in
        match R.Relation.find_by_key s.rel key with Some t -> visit t | None -> ())
      | Columns cols -> R.Tuple.Set.iter visit (smallest_column slots s cols)
      | Scan -> R.Relation.iter visit s.rel
  in
  level 0

(* [f answer witness] per derivation, the witness in body order *)
let iter_matches ?planned db (q : Query.t) f =
  let rels = Array.of_list (List.map (fun (a : Atom.t) -> a.Atom.rel) q.Query.body) in
  iter (compile ?planned db q) (fun answer body ->
      f answer (Array.mapi (fun i t -> R.Stuple.make rels.(i) t) body))

let matches ?planned db q =
  let acc = ref [] in
  iter_matches ?planned db q (fun answer w -> acc := (answer, w) :: !acc);
  List.rev !acc

let evaluate ?planned db q =
  let acc = ref R.Tuple.Set.empty in
  iter (compile ?planned db q) (fun answer _ -> acc := R.Tuple.Set.add answer !acc);
  !acc

let provenance ?planned db q =
  let acc = ref R.Tuple.Map.empty in
  iter_matches ?planned db q (fun answer w ->
      let ws = Option.value ~default:[] (R.Tuple.Map.find_opt answer !acc) in
      acc := R.Tuple.Map.add answer (w :: ws) !acc);
  !acc
