(* Minimal aligned-table printer for the experiment harness. *)

type cell = string

let fmt_float x =
  if Float.is_integer x && Float.abs x < 1e9 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.2f" x

(* a time in ms: three significant digits below 100, never fewer than
   two *)
let ms x =
  if x <= 0.0 || x >= 100.0 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.*f" (max 0 (2 - int_of_float (Float.floor (Float.log10 x)))) x

let s x = x
let i x = string_of_int x
let f x = fmt_float x
let b x = if x then "yes" else "no"

(* when set, every printed table is also written as <dir>/<slug>.csv *)
let csv_dir : string option ref = ref None

let slug_of title =
  String.map
    (fun c ->
      if (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') then
        Char.lowercase_ascii c
      else '_')
    (String.trim title)
  |> fun s -> if String.length s > 60 then String.sub s 0 60 else s

let write_csv ~title ~header rows =
  match !csv_dir with
  | None -> ()
  | Some dir ->
    (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    let path = Filename.concat dir (slug_of title ^ ".csv") in
    let oc = open_out path in
    let quote c =
      if String.exists (fun ch -> ch = ',' || ch = '"') c then
        "\"" ^ String.concat "\"\"" (String.split_on_char '"' c) ^ "\""
      else c
    in
    let line row = String.concat "," (List.map quote row) in
    output_string oc (line header ^ "\n");
    List.iter (fun r -> output_string oc (line r ^ "\n")) rows;
    close_out oc

let print ~title ~header rows =
  write_csv ~title ~header rows;
  let all = header :: rows in
  let widths =
    List.fold_left
      (fun ws row ->
        List.mapi
          (fun i c ->
            let cur = try List.nth ws i with _ -> 0 in
            max cur (String.length c))
          row)
      (List.map (fun _ -> 0) header)
      all
  in
  let line row =
    String.concat "  "
      (List.mapi
         (fun i c ->
           let w = List.nth widths i in
           c ^ String.make (w - String.length c) ' ')
         row)
  in
  Printf.printf "\n== %s ==\n" title;
  print_endline (line header);
  print_endline (String.make (String.length (line header)) '-');
  List.iter (fun r -> print_endline (line r)) rows;
  print_newline ()
