module F = Deleprop.Failpoint

(* ---- CRC-32 (IEEE), table-driven ----

   On the native int lane: the register holds 32 bits of a 63-bit int,
   so a byte costs one table read, two xors and a shift, with no boxed
   [Int32] and no closure (the journal, every image and the rows file
   are checked through this loop); it widens to [int32] once, at the
   end. *)

let crc_table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let crc32 s =
  let c = ref 0xFFFFFFFF in
  for i = 0 to String.length s - 1 do
    c :=
      Array.unsafe_get crc_table ((!c lxor Char.code (String.unsafe_get s i)) land 0xFF)
      lxor (!c lsr 8)
  done;
  Int32.of_int (!c lxor 0xFFFFFFFF)

(* ---- frames ---- *)

let frame payload =
  let n = String.length payload in
  let b = Bytes.create (8 + n) in
  Bytes.set_int32_le b 0 (Int32.of_int n);
  Bytes.set_int32_le b 4 (crc32 payload);
  Bytes.blit_string payload 0 b 8 n;
  Bytes.unsafe_to_string b

type read =
  | Frame of string * int
  | Bad_crc of int
  | Torn

let skip_frame data pos =
  let left = String.length data - pos in
  if left < 8 then None
  else
    let n = Int32.to_int (String.get_int32_le data pos) land 0xFFFFFFFF in
    if left - 8 < n then None else Some (pos + 8 + n)

let read_frame data pos =
  match skip_frame data pos with
  | None -> Torn
  | Some next ->
    let payload = String.sub data (pos + 8) (next - pos - 8) in
    if Int32.equal (crc32 payload) (String.get_int32_le data (pos + 4)) then
      Frame (payload, next)
    else Bad_crc next

(* ---- the recorder ---- *)

type op =
  | Create of string
  | Append of string * string
  | Replace of string * string
  | Rename of string * string
  | Truncate of string * int
  | Remove of string
  | Sync_dir of string

let recorder : (op -> unit) option ref = ref None
let record f = recorder := f
let note op = match !recorder with Some f -> f op | None -> ()

(* ---- reading ---- *)

let read_file ?upto path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let len = in_channel_length ic in
      really_input_string ic (match upto with Some n -> min n len | None -> len))

(* ---- writing ---- *)

(* Run a write of [data] as [write k], [k] the bytes it emits: all of
   them, unless [site] is armed to crash after fewer — then the write
   stops there, and [Injected] follows it (a write the allowance covers
   completes first). Any other armed action runs before the write. *)
let at_site site data write =
  let len = String.length data in
  match site with
  | None -> write len
  | Some name -> (
    match F.find name with
    | Some (F.Crash_after_bytes n) ->
      write (min n len);
      raise (F.Injected name)
    | armed ->
      if armed <> None then F.hit name;
      write len)

let sync_dir ~fsync path =
  if fsync then begin
    let dir = Filename.dirname path in
    let fd = Unix.openfile dir [ Unix.O_RDONLY ] 0 in
    Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> Unix.fsync fd);
    note (Sync_dir dir)
  end

(* flush [k] bytes of [data] to [oc], fsyncing them iff they are all of
   it *)
let emit ~fsync oc data k =
  output_substring oc data 0 k;
  flush oc;
  if fsync && k = String.length data then Unix.fsync (Unix.descr_of_out_channel oc)

(* [base] is the file's length when opened: the channel's position
   counts from 0 on every open, the file's bytes do not *)
type appender = { path : string; fsync : bool; oc : out_channel; base : int }

let append ?site a data =
  at_site site data (fun k ->
      emit ~fsync:a.fsync a.oc data k;
      note (Append (a.path, if k = String.length data then data else String.sub data 0 k)))

let open_append ~fsync ~header path =
  let created = not (Sys.file_exists path) in
  let oc = open_out_gen [ Open_wronly; Open_append; Open_creat; Open_binary ] 0o644 path in
  if created then begin
    note (Create path);
    sync_dir ~fsync path
  end;
  let a = { path; fsync; oc; base = out_channel_length oc } in
  if a.base = 0 then append a header;
  a

let written a = a.base + pos_out a.oc
let close a = close_out_noerr a.oc

let temp path = path ^ ".tmp"

let replace ?site ~fsync path data =
  at_site site data (fun k ->
      let tmp = temp path in
      let oc = open_out_gen [ Open_wronly; Open_trunc; Open_creat; Open_binary ] 0o644 tmp in
      Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> emit ~fsync oc data k);
      if k = String.length data then begin
        Sys.rename tmp path;
        note (Replace (path, data));
        sync_dir ~fsync path
      end)

let rename ~fsync src dst =
  Sys.rename src dst;
  note (Rename (src, dst));
  sync_dir ~fsync dst

let truncate path n =
  Unix.truncate path n;
  note (Truncate (path, n))

let remove path =
  if Sys.file_exists path then begin
    Sys.remove path;
    note (Remove path)
  end

let remove_temp path = remove (temp path)
