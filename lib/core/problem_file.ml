module R = Relational

exception Parse_error of int * string

let fail line msg = raise (Parse_error (line, msg))

let prefix p s =
  String.length s > String.length p && String.sub s 0 (String.length p) = p

let rest_of p s = String.trim (String.sub s (String.length p) (String.length s - String.length p))

let of_string ?(allow_non_key_preserving = false) text =
  let lines = String.split_on_char '\n' text in
  let db_lines = Buffer.create 256 in
  let queries = ref [] in
  let deletions = ref [] in
  let weights = ref [] in
  List.iteri
    (fun idx raw ->
      let lineno = idx + 1 in
      let line =
        match String.index_opt raw '#' with
        | Some i -> String.trim (String.sub raw 0 i)
        | None -> String.trim raw
      in
      if line = "" then ()
      else if prefix "query " line then begin
        match Cq.Parser.query_of_string (rest_of "query " line) with
        | q -> queries := q :: !queries
        | exception Cq.Parser.Parse_error m -> fail lineno m
      end
      else if prefix "delete " line then begin
        match R.Serial.fact_of_string (rest_of "delete " line) with
        | qname, tuple -> deletions := (qname, tuple) :: !deletions
        | exception R.Serial.Parse_error (_, m) -> fail lineno m
      end
      else if prefix "weight " line then begin
        let body = rest_of "weight " line in
        (* the weight value trails the fact after the closing paren *)
        match String.rindex_opt body ')' with
        | None -> fail lineno "expected ')' in weight line"
        | Some i -> (
          let fact = String.sub body 0 (i + 1) in
          let value = String.trim (String.sub body (i + 1) (String.length body - i - 1)) in
          match
            (R.Serial.fact_of_string fact, float_of_string_opt value)
          with
          | (qname, tuple), Some w -> weights := (Vtuple.make qname tuple, w) :: !weights
          | _, None -> fail lineno ("bad weight value " ^ value)
          | exception R.Serial.Parse_error (_, m) -> fail lineno m)
      end
      else begin
        (* database line: relation declaration or fact *)
        Buffer.add_string db_lines raw;
        Buffer.add_char db_lines '\n'
      end)
    lines;
  let db =
    try R.Serial.instance_of_string (Buffer.contents db_lines)
    with R.Serial.Parse_error (l, m) -> fail l m
  in
  let deletions =
    List.rev !deletions |> List.map (fun (qname, tuple) -> (qname, [ tuple ]))
  in
  try
    Problem.make ~db ~queries:(List.rev !queries) ~deletions
      ~weights:(Weights.of_list (List.rev !weights))
      ~allow_non_key_preserving ()
  with Invalid_argument m -> fail 0 m

let of_file ?allow_non_key_preserving path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  of_string ?allow_non_key_preserving s

let to_string (p : Problem.t) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (R.Serial.instance_to_string p.Problem.db);
  List.iter
    (fun q -> Buffer.add_string buf (Printf.sprintf "query %s\n" (Cq.Query.to_string q)))
    p.Problem.queries;
  Smap.iter
    (fun qname tuples ->
      R.Tuple.Set.iter
        (fun t ->
          Buffer.add_string buf
            (Printf.sprintf "delete %s(%s)\n" qname
               (String.concat ", " (List.map R.Value.to_string (R.Tuple.to_list t)))))
        tuples)
    p.Problem.deletions;
  List.iter
    (fun (vt, w) ->
      Buffer.add_string buf
        (Printf.sprintf "weight %s(%s) %s\n" vt.Vtuple.query
           (String.concat ", "
              (List.map R.Value.to_string (R.Tuple.to_list vt.Vtuple.tuple)))
           (Report.float_to_string w)))
    (Weights.overrides p.Problem.weights);
  Buffer.contents buf

let to_file path p =
  let oc = open_out path in
  output_string oc (to_string p);
  close_out oc
