type action =
  | Raise
  | Delay_ms of int
  | Crash_after_bytes of int

exception Injected of string

let parse_action name = function
  | "raise" -> Raise
  | s -> (
    match String.index_opt s ':' with
    | Some i -> (
      let kind = String.sub s 0 i in
      let arg = String.sub s (i + 1) (String.length s - i - 1) in
      match (kind, int_of_string_opt arg) with
      | "delay", Some n when n >= 0 -> Delay_ms n
      | "crash_after_bytes", Some n when n >= 0 -> Crash_after_bytes n
      | _ ->
        invalid_arg
          (Printf.sprintf "Failpoint.parse: bad action %S for %S" s name))
    | None ->
      invalid_arg (Printf.sprintf "Failpoint.parse: bad action %S for %S" s name))

let parse spec =
  String.split_on_char ',' spec
  |> List.map String.trim
  |> List.filter (fun s -> s <> "")
  |> List.map (fun entry ->
         match String.index_opt entry '=' with
         | None ->
           invalid_arg
             (Printf.sprintf "Failpoint.parse: expected name=action, got %S" entry)
         | Some i ->
           let name = String.trim (String.sub entry 0 i) in
           let action =
             String.trim (String.sub entry (i + 1) (String.length entry - i - 1))
           in
           if name = "" then
             invalid_arg
               (Printf.sprintf "Failpoint.parse: empty name in %S" entry);
           (name, parse_action name action))

(* process-wide registry; [None] in the table = programmatically cleared,
   shadowing any environment entry of the same name *)
let table : (string, action option) Hashtbl.t = Hashtbl.create 8
let lock = Mutex.create ()
let env_loaded = ref false

(* Known site names: the static sites plus everything registered at
   module-init time (each solver adapter registers its "solver.<name>"
   site). [DELEPROP_FAILPOINTS] entries are validated against this set —
   a misspelled name must fail loudly, not silently disarm the
   injection. Programmatic {!set} registers its name, so test-local
   sites keep working. *)
let known : (string, unit) Hashtbl.t = Hashtbl.create 8

let () =
  List.iter
    (fun n -> Hashtbl.replace known n ())
    [ "journal.append"; "journal.rewrite"; "snapshot.write" ]

let with_lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let register name = with_lock (fun () -> Hashtbl.replace known name ())
let names () = with_lock (fun () -> Hashtbl.fold (fun n () acc -> n :: acc) known [] |> List.sort compare)

let load_env_locked () =
  if not !env_loaded then begin
    env_loaded := true;
    match Sys.getenv_opt "DELEPROP_FAILPOINTS" with
    | None | Some "" -> ()
    | Some spec ->
      List.iter
        (fun (name, action) ->
          if not (Hashtbl.mem known name) then
            invalid_arg
              (Printf.sprintf
                 "DELEPROP_FAILPOINTS: unknown failpoint %S (known: %s)" name
                 (String.concat ", "
                    (Hashtbl.fold (fun n () acc -> n :: acc) known []
                    |> List.sort compare)));
          if not (Hashtbl.mem table name) then Hashtbl.replace table name (Some action))
        (parse spec)
  end

let set name action =
  with_lock (fun () ->
      Hashtbl.replace known name ();
      Hashtbl.replace table name (Some action))

let clear name = with_lock (fun () -> Hashtbl.replace table name None)

let reset () =
  with_lock (fun () ->
      Hashtbl.reset table;
      env_loaded := false)

let find name =
  with_lock (fun () ->
      load_env_locked ();
      Option.join (Hashtbl.find_opt table name))

let hit name =
  match find name with
  | None | Some (Crash_after_bytes _) -> ()
  | Some Raise -> raise (Injected name)
  | Some (Delay_ms n) -> if n > 0 then Unix.sleepf (float_of_int n /. 1000.0)
