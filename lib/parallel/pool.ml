(* A fixed-size domain pool over a mutex/condition work queue.

   No dependencies beyond the stdlib: workers are domains blocking on a
   Condition until work arrives or shutdown is requested.  Each map call
   submits one closure per input element; the closures write into a
   caller-owned slot array, so the pool itself never needs to know the
   element types.  Completion is tracked per batch with a dedicated
   mutex/condition pair, which keeps unrelated concurrent batches
   (there are none today, but nothing forbids them) from waking each
   other spuriously.

   All synchronization runs through the Sync shim so the concurrency
   sanitizer can record the pool's real lock/queue traffic. *)

let max_jobs = 64

(* Spawning more domains than the hardware can run in parallel is a net
   loss, not a no-op: every domain participates in stop-the-world minor
   collections, so oversubscribed workers add synchronization cost on
   top of plain time-slicing.  On a single-core host this made
   [--jobs 2] run the fig4 sweep ~2x *slower* than [--jobs 1]. *)
let hw_parallelism = Domain.recommended_domain_count ()

let effective_jobs requested = max 1 (min (min requested max_jobs) hw_parallelism)

type task = unit -> unit

type shared = {
  mutex : Sync.mutex;
  work : Sync.condition;  (* signalled on enqueue and on shutdown *)
  queue : task Queue.t;
  c_queue : Sync.cell;  (* race-detector marker for [queue] *)
  mutable stop : bool;
  c_stop : Sync.cell;
  mutable workers : unit Sync.handle list;
}

type t = { jobs : int; shared : shared option }

(* Set in every worker domain: a task that itself maps must run the
   inner map sequentially — if every worker blocked waiting for nested
   sub-tasks sitting behind it in the same queue, the pool would
   deadlock. *)
let in_worker_key : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

(* The compile service runs each request handler under this scope so a
   handler that calls a pool-mapping driver (analyze, explain, ...)
   stays entirely in its own worker domain: requests are the unit of
   parallelism there, and the request's Cancel token (domain-local)
   must see every tick of its own work. *)
let sequential_scope f =
  let saved = Domain.DLS.get in_worker_key in
  Domain.DLS.set in_worker_key true;
  Fun.protect ~finally:(fun () -> Domain.DLS.set in_worker_key saved) f

let worker_loop shared () =
  Domain.DLS.set in_worker_key true;
  let rec loop () =
    Sync.lock shared.mutex;
    let idle () =
      Sync.read shared.c_queue;
      Sync.read shared.c_stop;
      Queue.is_empty shared.queue && not shared.stop
    in
    while idle () do
      Sync.wait shared.work shared.mutex
    done;
    (* On shutdown the queue is drained before exiting, so no submitted
       batch is ever abandoned. *)
    if Queue.is_empty shared.queue then Sync.unlock shared.mutex
    else begin
      Sync.write shared.c_queue;
      let task = Queue.pop shared.queue in
      Sync.unlock shared.mutex;
      task ();
      loop ()
    end
  in
  loop ()

let create ?(clamp = true) ?jobs () =
  let requested = match jobs with None -> hw_parallelism | Some j -> j in
  let jobs =
    if clamp then effective_jobs requested else max 1 (min requested max_jobs)
  in
  if jobs <= 1 then { jobs = 1; shared = None }
  else begin
    let shared =
      {
        mutex = Sync.mutex ~name:"pool.mutex" ();
        work = Sync.condition ~name:"pool.work" ();
        queue = Queue.create ();
        c_queue = Sync.cell ~name:"pool.queue" ();
        stop = false;
        c_stop = Sync.cell ~name:"pool.stop" ();
        workers = [];
      }
    in
    shared.workers <- List.init jobs (fun _ -> Sync.spawn (worker_loop shared));
    { jobs; shared = Some shared }
  end

let jobs t = t.jobs

(* Join every worker even if some join raises (a worker domain died on
   an escaped exception): losing one worker must not orphan the rest.
   The first failure propagates unwrapped once all are joined. *)
let join_all workers =
  let first_exn = ref None in
  List.iter
    (fun d ->
      match Sync.join d with
      | () -> ()
      | exception e ->
          if !first_exn = None then
            first_exn := Some (e, Printexc.get_raw_backtrace ()))
    workers;
  match !first_exn with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ()

let shutdown t =
  match t.shared with
  | None -> ()
  | Some s ->
      Sync.lock s.mutex;
      Sync.read s.c_stop;
      if s.stop then Sync.unlock s.mutex
      else begin
        Sync.write s.c_stop;
        s.stop <- true;
        Sync.broadcast s.work;
        let workers = s.workers in
        s.workers <- [];
        Sync.unlock s.mutex;
        join_all workers
      end

(* Test-only (see pool.mli): enqueue a raw task with none of map's
   exception capture, so the teardown path can be exercised against a
   worker that dies mid-flight. *)
let unsafe_inject_for_test t task =
  match t.shared with
  | None -> false
  | Some s ->
      Sync.lock s.mutex;
      Sync.read s.c_stop;
      let accepted = not s.stop in
      if accepted then begin
        Sync.write s.c_queue;
        Queue.add task s.queue;
        Sync.signal s.work
      end;
      Sync.unlock s.mutex;
      accepted

(* Enqueue the batch and block until every task has run.  Tasks must not
   raise (map's wrapper catches everything into its slot array). *)
let run_batch s tasks =
  let n = List.length tasks in
  let finished = ref 0 in
  let c_finished = Sync.cell ~name:"pool.batch.finished" () in
  let done_m = Sync.mutex ~name:"pool.batch.mutex" ()
  and done_c = Sync.condition ~name:"pool.batch.done" () in
  let wrap task () =
    task ();
    Sync.lock done_m;
    Sync.write c_finished;
    incr finished;
    if !finished = n then Sync.signal done_c;
    Sync.unlock done_m
  in
  Sync.lock s.mutex;
  Sync.write s.c_queue;
  List.iter (fun task -> Queue.add (wrap task) s.queue) tasks;
  Sync.broadcast s.work;
  Sync.unlock s.mutex;
  Sync.lock done_m;
  let pending () =
    Sync.read c_finished;
    !finished < n
  in
  while pending () do
    Sync.wait done_c done_m
  done;
  Sync.unlock done_m

type ('b, 'e) slot = ('b, 'e) result option

let map t f xs =
  let usable s =
    Sync.lock s.mutex;
    Sync.read s.c_stop;
    let u = not s.stop in
    Sync.unlock s.mutex;
    u
  in
  match (t.shared, xs) with
  | None, _ | _, ([] | [ _ ]) -> List.map f xs
  | Some s, _ ->
      if Domain.DLS.get in_worker_key || not (usable s) then List.map f xs
      else begin
        let arr = Array.of_list xs in
        let n = Array.length arr in
        let slots : ('b, exn * Printexc.raw_backtrace) slot array =
          Array.make n None
        in
        (* One marker per slot: distinct indices are distinct memory. *)
        let slot_cells =
          Array.init n (fun _ -> Sync.cell ~name:"pool.map.slot" ())
        in
        let tasks =
          List.init n (fun i () ->
              Sync.write slot_cells.(i);
              slots.(i) <-
                Some
                  (match f arr.(i) with
                  | v -> Ok v
                  | exception e -> Error (e, Printexc.get_raw_backtrace ())))
        in
        run_batch s tasks;
        (* Re-raise the earliest failure — what sequential List.map
           would have raised first. *)
        Array.iteri
          (fun i slot ->
            Sync.read slot_cells.(i);
            match slot with
            | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
            | Some (Ok _) -> ()
            | None -> assert false (* run_batch waited for every task *))
          slots;
        List.init n (fun i ->
            match slots.(i) with Some (Ok v) -> v | _ -> assert false)
      end

(* ------------------------------------------------- shared default pool *)

let default_lock = Mutex.create ()
let default_pool : t option ref = ref None
let default_jobs_v = ref (Domain.recommended_domain_count ())
let default_jobs () = !default_jobs_v

let set_default_jobs j =
  let j = max 1 j in
  Mutex.lock default_lock;
  let old = if j <> !default_jobs_v then !default_pool else None in
  if j <> !default_jobs_v then default_pool := None;
  default_jobs_v := j;
  Mutex.unlock default_lock;
  match old with Some p -> shutdown p | None -> ()

let shared_pool () =
  Mutex.lock default_lock;
  let t =
    match !default_pool with
    | Some t -> t
    | None ->
        let t = create ~jobs:!default_jobs_v () in
        default_pool := Some t;
        t
  in
  Mutex.unlock default_lock;
  t

let map_ordered f xs = map (shared_pool ()) f xs
