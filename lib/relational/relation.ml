exception Key_violation of string * Tuple.t * Tuple.t
exception Arity_mismatch of string * int * int

module VM = Map.Make (Value)

(* [size] and [distinct] are the join planner's statistics, kept in step
   with [tuples] and [by_column] by [add]/[remove]: [Set.cardinal] and
   [Map.cardinal] walk the whole structure, and the optimizer asks for
   them once per atom per plan, on every incremental insert's plans *)
type t = {
  schema : Schema.t;
  tuples : Tuple.Set.t;
  size : int;                         (* = Tuple.Set.cardinal tuples *)
  by_key : Tuple.t Tuple.Map.t;       (* key projection -> full tuple *)
  by_column : Tuple.Set.t VM.t array; (* secondary index per column *)
  distinct : int array;               (* = VM.cardinal of each by_column map *)
}

let empty schema =
  {
    schema;
    tuples = Tuple.Set.empty;
    size = 0;
    by_key = Tuple.Map.empty;
    by_column = Array.make schema.Schema.arity VM.empty;
    distinct = Array.make schema.Schema.arity 0;
  }

let schema r = r.schema
let name r = r.schema.Schema.name

(* both helpers also count distinct values into [distinct], a fresh copy
   the caller owns: a column value enters or leaves the index exactly
   when its tuple set appears or empties *)
let index_add by_column distinct t =
  Array.mapi
    (fun i m ->
      let v = Tuple.get t i in
      VM.update v
        (fun cur ->
          if Option.is_none cur then distinct.(i) <- distinct.(i) + 1;
          Some (Tuple.Set.add t (Option.value ~default:Tuple.Set.empty cur)))
        m)
    by_column

let index_remove by_column distinct t =
  Array.mapi
    (fun i m ->
      let v = Tuple.get t i in
      VM.update v
        (fun cur ->
          match cur with
          | None -> None
          | Some s ->
            let s = Tuple.Set.remove t s in
            if Tuple.Set.is_empty s then begin
              distinct.(i) <- distinct.(i) - 1;
              None
            end
            else Some s)
        m)
    by_column

let add r t =
  if Tuple.arity t <> r.schema.Schema.arity then
    raise (Arity_mismatch (name r, r.schema.Schema.arity, Tuple.arity t));
  let k = Schema.key_of_tuple r.schema t in
  match Tuple.Map.find_opt k r.by_key with
  | Some existing when not (Tuple.equal existing t) ->
    raise (Key_violation (name r, existing, t))
  | Some _ -> r
  | None ->
    let distinct = Array.copy r.distinct in
    {
      r with
      tuples = Tuple.Set.add t r.tuples;
      size = r.size + 1;
      by_key = Tuple.Map.add k t r.by_key;
      by_column = index_add r.by_column distinct t;
      distinct;
    }

let of_tuples schema ts = List.fold_left add (empty schema) ts

let remove r t =
  if not (Tuple.Set.mem t r.tuples) then r
  else
    let k = Schema.key_of_tuple r.schema t in
    let distinct = Array.copy r.distinct in
    {
      r with
      tuples = Tuple.Set.remove t r.tuples;
      size = r.size - 1;
      by_key = Tuple.Map.remove k r.by_key;
      by_column = index_remove r.by_column distinct t;
      distinct;
    }

let mem r t = Tuple.Set.mem t r.tuples
let cardinal r = r.size
let is_empty r = r.size = 0
let tuples r = Tuple.Set.elements r.tuples
let to_set r = r.tuples
let fold f r acc = Tuple.Set.fold f r.tuples acc
let iter f r = Tuple.Set.iter f r.tuples

let filter p r =
  Tuple.Set.fold (fun t acc -> if p t then acc else remove acc t) r.tuples r

let find_by_key r k = Tuple.Map.find_opt k r.by_key

let column_set r pos v =
  if pos < 0 || pos >= r.schema.Schema.arity then
    invalid_arg "Relation.column_set: position out of range";
  Option.value ~default:Tuple.Set.empty (VM.find_opt v r.by_column.(pos))

let distinct_in_column r pos =
  if pos < 0 || pos >= r.schema.Schema.arity then
    invalid_arg "Relation.distinct_in_column: position out of range";
  r.distinct.(pos)

let diff r s = Tuple.Set.fold (fun t acc -> remove acc t) s r

let equal a b = Schema.equal a.schema b.schema && Tuple.Set.equal a.tuples b.tuples

let pp ppf r =
  Format.fprintf ppf "@[<v 2>%a = {@ %a }@]" Schema.pp r.schema
    (Format.pp_print_list ~pp_sep:Format.pp_print_space Tuple.pp)
    (tuples r)
