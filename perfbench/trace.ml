(* Spans recorded around calls into each layer, kept in memory and
   written out as JSONL when the run ends.

   A span is a name, a start and an end (ms since the trace began), the
   id of the span that caused it (0 = none) and the round it belongs to.
   Shadow spans time a pure public function replayed on the engine's
   pre-call state after the real call returned; their parent is the
   real call they stand in for, so a real call's self time is its
   duration minus its shadow children's. *)

type span = {
  id : int;
  name : string;
  start : float;
  stop : float;
  parent : int;
  round : int;
  shadow : bool;
}

type t = { t0 : float; mutable spans : span list; mutable next : int }

let create () = { t0 = Unix.gettimeofday (); spans = []; next = 1 }

let ms_since t x = (x -. t.t0) *. 1000.0

let record t ~name ~parent ~round ~shadow ~start ~stop =
  let id = t.next in
  t.next <- id + 1;
  t.spans <-
    { id; name; start = ms_since t start; stop = ms_since t stop; parent; round; shadow } :: t.spans;
  id

(* [span t ~name ~parent ~round f] runs [f] inside a span; returns the
   result, the span id and its duration in ms *)
let span ?(shadow = false) t ~name ~parent ~round f =
  let start = Unix.gettimeofday () in
  let r = f () in
  let stop = Unix.gettimeofday () in
  let id = record t ~name ~parent ~round ~shadow ~start ~stop in
  (r, id, (stop -. start) *. 1000.0)

let dur s = s.stop -. s.start

let spans t = List.rev t.spans

let durations t name =
  List.filter_map (fun s -> if s.name = name then Some (dur s) else None) t.spans

(* per span: duration minus the time its child spans took *)
let self_times t =
  let children = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent > 0 then
        Hashtbl.replace children s.parent
          (dur s +. try Hashtbl.find children s.parent with Not_found -> 0.0))
    t.spans;
  List.map (fun s -> (s, dur s -. try Hashtbl.find children s.id with Not_found -> 0.0)) t.spans

let write_jsonl t path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"start_ms\":%.4f,\"end_ms\":%.4f,\"parent\":%d,\"round\":%d,\"shadow\":%b}\n"
        s.id s.name s.start s.stop s.parent s.round s.shadow)
    (spans t);
  close_out oc

(* per name: count, total ms, self ms — the per-layer summary *)
let summary t =
  let acc = Hashtbl.create 32 in
  List.iter
    (fun (s, self) ->
      let n, tot, sf = try Hashtbl.find acc s.name with Not_found -> (0, 0.0, 0.0) in
      Hashtbl.replace acc s.name (n + 1, tot +. dur s, sf +. self))
    (self_times t);
  List.sort compare (Hashtbl.fold (fun k (n, tot, sf) l -> (k, n, tot, sf) :: l) acc [])

let write_summary t path =
  let oc = open_out path in
  output_string oc "{\n";
  let rows = summary t in
  List.iteri
    (fun i (name, n, tot, sf) ->
      Printf.fprintf oc "  %S: {\"count\": %d, \"total_ms\": %.4f, \"self_ms\": %.4f}%s\n" name n
        tot sf
        (if i = List.length rows - 1 then "" else ","))
    rows;
  output_string oc "}\n";
  close_out oc
