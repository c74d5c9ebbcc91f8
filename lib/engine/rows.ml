module D = Deleprop

let magic = "DLPROWS1"
let version = 1

type rejection =
  | Missing
  | Version of int
  | Key
  | Checksum
  | Invalid_row of string
  | Digest_mismatch

let pp_rejection ppf = function
  | Missing -> Format.pp_print_string ppf "no rows file"
  | Version v -> Format.fprintf ppf "rows file version %d unsupported (this build reads %d)" v version
  | Key -> Format.pp_print_string ppf "rows file written for another database or other queries"
  | Checksum -> Format.pp_print_string ppf "rows file checksum mismatch or truncated frame"
  | Invalid_row m -> Format.fprintf ppf "rows file invalid: %s" m
  | Digest_mismatch ->
    Format.pp_print_string ppf "the arena built from the rows file does not match the image's digest"

let rejection_label = function
  | Missing -> "missing"
  | Version _ -> "version"
  | Key -> "key"
  | Checksum -> "checksum"
  | Invalid_row _ -> "invalid_row"
  | Digest_mismatch -> "digest_mismatch"

let path snapshot = snapshot ^ ".rows"

(* ---- encoding ---- *)

let header ~key n =
  let b = Bytes.create 24 in
  Bytes.blit_string magic 0 b 0 8;
  Bytes.set_int32_le b 8 (Int32.of_int version);
  Bytes.set_int64_le b 12 key;
  Bytes.set_int32_le b 20 (Int32.of_int n);
  Bytes.unsafe_to_string b

(* name, k, count, then k sids per answer; a query with no answer
   stores k = 0 *)
let query_payload (name, (ws : int array array)) =
  let nl = String.length name and count = Array.length ws in
  let k = if count = 0 then 0 else Array.length ws.(0) in
  let b = Bytes.create (12 + nl + (4 * k * count)) in
  Bytes.set_int32_le b 0 (Int32.of_int nl);
  Bytes.blit_string name 0 b 4 nl;
  Bytes.set_int32_le b (4 + nl) (Int32.of_int k);
  Bytes.set_int32_le b (8 + nl) (Int32.of_int count);
  Array.iteri
    (fun j w ->
      if Array.length w <> k then invalid_arg "Rows.encode: bodies of one query differ in length";
      for i = 0 to k - 1 do
        Bytes.set_int32_le b (12 + nl + (4 * ((j * k) + i))) (Int32.of_int w.(i))
      done)
    ws;
  Bytes.unsafe_to_string b

let encode ~key (bodies : D.Provenance.bodies) =
  String.concat ""
    (Durable.frame (header ~key (List.length bodies))
    :: List.map (fun q -> Durable.frame (query_payload q)) bodies)

let write ~key path bodies =
  Durable.replace ~site:"rows.write" ~fsync:false path (encode ~key bodies)

(* ---- decoding ---- *)

let u32 s off = Int32.to_int (String.get_int32_le s off) land 0xFFFFFFFF

let decode_query p =
  let len = String.length p in
  let nl = if len >= 4 then u32 p 0 else len in
  if len < 12 + nl then Error "a query frame is too short"
  else
    let name = String.sub p 4 nl in
    let k = u32 p (4 + nl) and count = u32 p (8 + nl) in
    let off = 12 + nl in
    (* both counts are bounded by the frame before they multiply *)
    if k > len || count > len || len - off <> 4 * k * count then
      Error (Printf.sprintf "%s: %d bytes of rows for %d answers of %d sids" name (len - off) count k)
    else begin
      let ws = Array.make count [||] in
      for j = 0 to count - 1 do
        let w = Array.make k 0 in
        for i = 0 to k - 1 do
          w.(i) <- Int32.to_int (String.get_int32_le p (off + (4 * ((j * k) + i))))
        done;
        ws.(j) <- w
      done;
      Ok (name, ws)
    end

let load ~key path =
  match Durable.read_file path with
  | exception Sys_error _ -> Error Missing
  | data -> (
    match Durable.read_frame data 0 with
    | Durable.Torn | Durable.Bad_crc _ -> Error Checksum
    | Durable.Frame (h, pos) ->
      if String.length h < 12 || not (String.starts_with ~prefix:magic h) then
        Error (Invalid_row "not a rows file")
      else
        let v = u32 h 8 in
        if v <> version then Error (Version v)
        else if String.length h <> 24 then Error (Invalid_row "malformed header")
        else if not (Int64.equal (String.get_int64_le h 12) key) then Error Key
        else
          let n = u32 h 20 in
          let rec frames pos i acc =
            if i = n then
              if pos = String.length data then Ok (List.rev acc)
              else Error (Invalid_row "bytes after the last query frame")
            else
              match Durable.read_frame data pos with
              | Durable.Torn | Durable.Bad_crc _ -> Error Checksum
              | Durable.Frame (p, next) -> (
                match decode_query p with
                | Ok q -> frames next (i + 1) (q :: acc)
                | Error m -> Error (Invalid_row m))
          in
          frames pos 0 [])
