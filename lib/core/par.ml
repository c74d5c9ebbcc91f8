let reraise_first results =
  List.map (function Ok y -> y | Error e -> raise e) results

let sequential_map_result f xs =
  List.map (fun x -> try Ok (f x) with e -> Error e) xs

module Pool = struct
  type job = {
    run : int -> unit;          (* never raises: wraps into the out array *)
    n : int;
    next : int Atomic.t;
    completed : int Atomic.t;
  }

  type t = {
    size : int;
    mutex : Mutex.t;            (* guards [job]/[generation]/[stop] *)
    work : Condition.t;         (* new job published / shutdown *)
    done_ : Condition.t;        (* some job completed its last item *)
    mutable job : job option;
    mutable generation : int;
    mutable stop : bool;
    mutable workers : unit Domain.t list;
    worker_ids : Domain.id list ref;
    caller : Mutex.t;           (* serializes concurrent [map] callers *)
    mutable active_caller : Domain.id option;
        (* the domain currently driving a job; only it can observe its own
           id here, so the unsynchronized read in [map] is safe *)
  }

  (* claim items until the job runs dry; whoever finishes the last item
     wakes the caller *)
  let drain t (j : job) =
    let continue_ = ref true in
    while !continue_ do
      let i = Atomic.fetch_and_add j.next 1 in
      if i >= j.n then continue_ := false
      else begin
        j.run i;
        if Atomic.fetch_and_add j.completed 1 = j.n - 1 then begin
          Mutex.lock t.mutex;
          Condition.broadcast t.done_;
          Mutex.unlock t.mutex
        end
      end
    done

  let rec worker_loop t gen =
    Mutex.lock t.mutex;
    while (not t.stop) && t.generation = gen do
      Condition.wait t.work t.mutex
    done;
    let stop = t.stop and job = t.job and gen' = t.generation in
    Mutex.unlock t.mutex;
    if not stop then begin
      (match job with Some j -> drain t j | None -> ());
      worker_loop t gen'
    end

  let create ?domains () =
    let size =
      match domains with
      | Some d ->
        if d < 1 then
          invalid_arg
            (Printf.sprintf "Par.Pool.create: domains must be >= 1 (got %d)" d);
        d
      | None -> Domain.recommended_domain_count ()
    in
    let t =
      {
        size;
        mutex = Mutex.create ();
        work = Condition.create ();
        done_ = Condition.create ();
        job = None;
        generation = 0;
        stop = false;
        workers = [];
        worker_ids = ref [];
        caller = Mutex.create ();
        active_caller = None;
      }
    in
    if size > 1 then begin
      let ws = List.init (size - 1) (fun _ -> Domain.spawn (fun () -> worker_loop t 0)) in
      t.workers <- ws;
      t.worker_ids := List.map Domain.get_id ws
    end;
    t

  let size t = t.size

  let map_result t f xs =
    let n = List.length xs in
    let self = Domain.self () in
    let nested =
      (* from a pool worker, or re-entered from the driving caller itself:
         parallelizing again would deadlock, so degrade to sequential *)
      List.exists (fun id -> id = self) !(t.worker_ids)
      || (match t.active_caller with Some id -> id = self | None -> false)
    in
    if n <= 1 || t.size <= 1 || t.stop || nested then sequential_map_result f xs
    else begin
      Mutex.lock t.caller;
      t.active_caller <- Some self;
      let input = Array.of_list xs in
      let out = Array.make n None in
      let job =
        {
          run = (fun i -> out.(i) <- Some (try Ok (f input.(i)) with e -> Error e));
          n;
          next = Atomic.make 0;
          completed = Atomic.make 0;
        }
      in
      Mutex.lock t.mutex;
      t.job <- Some job;
      t.generation <- t.generation + 1;
      Condition.broadcast t.work;
      Mutex.unlock t.mutex;
      drain t job;
      Mutex.lock t.mutex;
      while Atomic.get job.completed < n do
        Condition.wait t.done_ t.mutex
      done;
      t.job <- None;
      Mutex.unlock t.mutex;
      t.active_caller <- None;
      Mutex.unlock t.caller;
      Array.to_list out
      |> List.map (function
           | Some r -> r
           | None -> assert false (* every index was claimed *))
    end

  let map t f xs = reraise_first (map_result t f xs)

  let shutdown t =
    Mutex.lock t.caller;
    Mutex.lock t.mutex;
    let ws = t.workers in
    t.stop <- true;
    t.workers <- [];
    Condition.broadcast t.work;
    Mutex.unlock t.mutex;
    List.iter Domain.join ws;
    Mutex.unlock t.caller
end

(* A one-off job runs on a pool of its own, created and shut down inside
   the call; one domain wide it is a plain sequential map with no pool. *)
let map_result ?(domains = 1) ?pool f xs =
  match pool with
  | Some p -> Pool.map_result p f xs
  | None ->
    if domains < 1 then
      invalid_arg (Printf.sprintf "Par.map: domains must be >= 1 (got %d)" domains);
    let d = min domains (List.length xs) in
    if d <= 1 then sequential_map_result f xs
    else begin
      let p = Pool.create ~domains:d () in
      Fun.protect
        ~finally:(fun () -> Pool.shutdown p)
        (fun () -> Pool.map_result p f xs)
    end

let map ?domains ?pool f xs = reraise_first (map_result ?domains ?pool f xs)
