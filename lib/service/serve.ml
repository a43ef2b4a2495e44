(* The resident compile service loop.  See the mli for the robustness
   contract; the implementation notes that matter:

   - One response line per request line, emitted in request order: every
     accepted line gets a sequence number, and an internal reorder
     buffer (emit/wait_until) holds out-of-order completions from the
     worker domains until their turn.  Request order is what makes a
     session replay byte-identical across --jobs.

   - health and drain are *barrier* requests: they are handled inline in
     the reader only once every earlier response has been flushed, so
     the counters and memo statistics they report are a deterministic
     function of the request stream, not of worker interleaving (memo
     waiters count as hits and a released claim re-misses, so even the
     hit/miss split is jobs-invariant).

   - Each request handler runs under Pool.sequential_scope with a
     Cancel token installed: the request is the unit of parallelism, so
     nested pool maps (analyze/explain drivers) stay in the request's
     own domain where its token lives.

   - Known limitation, by design: two concurrent requests sharing a
     memo key where one has a binding deadline can race for the
     single-flight claim, so *that* pairing is not replay-stable across
     --jobs.  Deadline determinism is per-request; the e2e test keeps
     deadline-bearing requests on dedicated keys. *)

module Config = Vliw_arch.Config
module Loop = Vliw_ir.Loop
module Schedule = Vliw_sched.Schedule
module Pipeline = Vliw_core.Pipeline
module Machine = Vliw_sim.Machine
module Stats = Vliw_sim.Stats
module WL = Vliw_workloads
module Analyze = Vliw_analysis.Analyze
module Explain = Vliw_analysis.Explain
module Oracle = Vliw_analysis.Oracle
module Cancel = Vliw_parallel.Cancel
module Pool = Vliw_parallel.Pool
module Memo = Vliw_parallel.Memo
module Sync = Vliw_parallel.Sync
module Context = Vliw_experiments.Context
module Json = Vliw_report.Json

let schema_version = 1

type counters = {
  accepted : int;
  ok : int;
  errors : int;
  timeouts : int;
  internal_errors : int;
  shed : int;
  high_watermark : int;
}

type outcome = { counters : counters; reason : string }

(* ------------------------------------------------------ shared state *)

type tally = {
  t_mutex : Sync.mutex;
  t_cell : Sync.cell;  (* race-detector marker for all six counters *)
  mutable t_accepted : int;
  mutable t_ok : int;
  mutable t_errors : int;
  mutable t_timeouts : int;
  mutable t_internal : int;
  mutable t_shed : int;
}

let tally_create () =
  {
    t_mutex = Sync.mutex ~name:"serve.tally.mutex" ();
    t_cell = Sync.cell ~name:"serve.tally" ();
    t_accepted = 0;
    t_ok = 0;
    t_errors = 0;
    t_timeouts = 0;
    t_internal = 0;
    t_shed = 0;
  }

let bump t f =
  Sync.lock t.t_mutex;
  Sync.write t.t_cell;
  f t;
  Sync.unlock t.t_mutex

let tally_read t =
  Sync.lock t.t_mutex;
  Sync.read t.t_cell;
  let r =
    ( t.t_accepted, t.t_ok, t.t_errors, t.t_timeouts, t.t_internal, t.t_shed )
  in
  Sync.unlock t.t_mutex;
  r

(* In-order response emitter.  Write failures (client went away) must
   never stall the bookkeeping: the sequence counter advances whether or
   not the bytes made it out, so drain barriers cannot deadlock on a
   broken pipe.  Exposed (with an abstract sink) so the concurrency
   sanitizer's virtual scheduler can drive the real reorder logic in
   closed scenarios. *)
module Emitter = struct
  type t = {
    e_mutex : Sync.mutex;
    e_flushed : Sync.condition;
    e_pending : (int, string) Hashtbl.t;
    e_cell : Sync.cell;  (* marker for [e_pending] + [e_next] *)
    mutable e_next : int;
    e_write : string -> unit;
    e_flush : unit -> unit;
  }

  let create ?(flush = fun () -> ()) ~write () =
    {
      e_mutex = Sync.mutex ~name:"serve.emitter.mutex" ();
      e_flushed = Sync.condition ~name:"serve.emitter.flushed" ();
      e_pending = Hashtbl.create 64;
      e_cell = Sync.cell ~name:"serve.emitter.state" ();
      e_next = 0;
      e_write = write;
      e_flush = flush;
    }

  let emit em seq line =
    Sync.lock em.e_mutex;
    Sync.write em.e_cell;
    Hashtbl.replace em.e_pending seq line;
    let progressed = ref false in
    while Hashtbl.mem em.e_pending em.e_next do
      let l = Hashtbl.find em.e_pending em.e_next in
      Hashtbl.remove em.e_pending em.e_next;
      em.e_next <- em.e_next + 1;
      progressed := true;
      em.e_write l
    done;
    if !progressed then begin
      em.e_flush ();
      Sync.broadcast em.e_flushed
    end;
    Sync.unlock em.e_mutex

  let wait_until em seq =
    Sync.lock em.e_mutex;
    let behind () =
      Sync.read em.e_cell;
      em.e_next < seq
    in
    while behind () do
      Sync.wait em.e_flushed em.e_mutex
    done;
    Sync.unlock em.e_mutex
end

let emitter_create out =
  Emitter.create
    ~write:(fun l ->
      try
        output_string out l;
        output_char out '\n'
      with Sys_error _ -> ())
    ~flush:(fun () -> try flush out with Sys_error _ -> ())
    ()

let emit = Emitter.emit
let wait_until = Emitter.wait_until

(* Bounded dispatch queue for jobs > 1.  Exposed for the same reason as
   {!Emitter}: the queue-full shed vs. drain-barrier scenario runs this
   exact code under the virtual scheduler. *)
module Wq = struct
  type t = {
    q_mutex : Sync.mutex;
    q_nonempty : Sync.condition;
    q_tasks : (unit -> unit) Queue.t;
    q_cell : Sync.cell;  (* marker for [q_tasks]/[q_stop]/[q_watermark] *)
    q_cap : int;
    mutable q_stop : bool;
    mutable q_watermark : int;
  }

  let create cap =
    {
      q_mutex = Sync.mutex ~name:"serve.wq.mutex" ();
      q_nonempty = Sync.condition ~name:"serve.wq.nonempty" ();
      q_tasks = Queue.create ();
      q_cell = Sync.cell ~name:"serve.wq.state" ();
      q_cap = max 1 cap;
      q_stop = false;
      q_watermark = 0;
    }

  let push q task =
    Sync.lock q.q_mutex;
    Sync.read q.q_cell;
    let accepted = Queue.length q.q_tasks < q.q_cap && not q.q_stop in
    if accepted then begin
      Sync.write q.q_cell;
      Queue.add task q.q_tasks;
      q.q_watermark <- max q.q_watermark (Queue.length q.q_tasks);
      Sync.signal q.q_nonempty
    end;
    Sync.unlock q.q_mutex;
    accepted

  let rec worker q =
    Sync.lock q.q_mutex;
    let idle () =
      Sync.read q.q_cell;
      Queue.is_empty q.q_tasks && not q.q_stop
    in
    while idle () do
      Sync.wait q.q_nonempty q.q_mutex
    done;
    (* Stop drains the queue first: every accepted request still gets
       its response before the workers exit. *)
    if Queue.is_empty q.q_tasks then Sync.unlock q.q_mutex
    else begin
      Sync.write q.q_cell;
      let task = Queue.pop q.q_tasks in
      Sync.unlock q.q_mutex;
      (try task () with _ -> ());
      worker q
    end

  let stop q =
    Sync.lock q.q_mutex;
    Sync.write q.q_cell;
    q.q_stop <- true;
    Sync.broadcast q.q_nonempty;
    Sync.unlock q.q_mutex

  let watermark q =
    Sync.lock q.q_mutex;
    Sync.read q.q_cell;
    let w = q.q_watermark in
    Sync.unlock q.q_mutex;
    w
end

let wq_create = Wq.create
let wq_push = Wq.push
let wq_worker = Wq.worker

let wq_shutdown q workers =
  Wq.stop q;
  List.iter Sync.join workers

(* --------------------------------------------------- response builders *)

(* One response line: the envelope head (schema, sequence number, the
   client's id, the request kind), the status-specific fields, and the
   handler's wall time when timing is on. *)
let response_line ~seq ?id ?req ?ms fields =
  let opt name f = function Some v -> [ (name, f v) ] | None -> [] in
  Json.to_string
    (Json.Obj
       ([ ("schema_version", Json.Int schema_version); ("seq", Json.Int seq) ]
       @ opt "id" (fun i -> Json.String i) id
       @ opt "req" (fun k -> Json.String k) req
       @ fields
       @ opt "ms" (fun m -> Json.Fixed (3, m)) ms))

let error_fields ~kind ~detail =
  Json.
    [
      ("status", String "error");
      ("error", Obj [ ("kind", String kind); ("detail", String detail) ]);
    ]

let error_line ~seq ~kind ~detail =
  response_line ~seq (error_fields ~kind ~detail)

let overloaded_line ~seq ~id ~req ~detail =
  response_line ~seq ?id ~req
    Json.[ ("status", String "overloaded"); ("detail", String detail) ]

let counters_json ?watermark t =
  let accepted, ok, errors, timeouts, internal, shed = tally_read t in
  ( "counters",
    Json.(
      Obj
        ([
           ("accepted", Int accepted); ("ok", Int ok); ("errors", Int errors);
           ("timeouts", Int timeouts); ("internal_errors", Int internal);
           ("shed", Int shed);
         ]
        @
        match watermark with
        | Some w -> [ ("queue_high_watermark", Int w) ]
        | None -> [])) )

let memos_json ctx =
  let memo (name, (st : Memo.stats)) =
    Json.(
      Obj
        [
          ("name", String name); ("resident", Int st.Memo.size);
          ("hits", Int st.Memo.hits); ("misses", Int st.Memo.misses);
          ("evictions", Int st.Memo.evictions);
        ])
  in
  ("memos", Json.List (List.map memo (Context.memo_stats ctx)))

(* ----------------------------------------------------------- handlers *)

let find_bench name =
  List.find_opt (fun b -> b.WL.Benchspec.name = name) WL.Mediabench.all

let bench_filter = function
  | None -> Ok None
  | Some name -> (
      match find_bench name with
      | Some _ -> Ok (Some [ name ])
      | None -> Error ("unknown_benchmark", name))

let null_ppf () = Format.make_formatter (fun _ _ _ -> ()) (fun () -> ())

let stats_json st traffic =
  Json.
    [
      ( "stats",
        Obj
          [
            ("total_cycles", Int (Stats.total_cycles st));
            ("compute_cycles", Int (Stats.compute_cycles st));
            ("stall_cycles", Int (Stats.stall_cycles st));
            ("accesses", Int (Stats.total_accesses st));
            ("local_hit_ratio", Fixed (6, Stats.local_hit_ratio st));
          ] );
      ("traffic", Obj (List.map (fun (k, v) -> (k, Int v)) traffic));
    ]

(* One simulate-only cell under [cfg], the cell's full configuration:
   a geometry the cache models cannot build is the client's error
   (bad_config), never a crash or a silently rounded cache. *)
let simulate_cell ctx ~cfg b spec ~trip_cap cell =
  match Config.validate cfg with
  | Error msg -> Error ("bad_config", msg)
  | Ok () -> (
      match Context.run_batch ctx b spec ?trip_cap [ cell ] with
      | [ (st, traffic) ] -> Ok (stats_json st traffic)
      | _ -> Error ("internal", "batch returned unexpected arity"))

(* The request payload: Ok carries the fields that follow
   "status":"ok", Error a structured (kind, detail) request error. *)
let payload ctx (req : Proto.request) =
  match req with
  | Proto.Health | Proto.Drain ->
      (* barrier requests; handled inline in the reader *)
      Error ("internal", "control request reached a worker")
  | Proto.Compile { bench; heuristic; chains } -> (
      match find_bench bench with
      | None -> Error ("unknown_benchmark", bench)
      | Some b ->
          let spec = Context.interleaved ~chains heuristic in
          let row (c : Pipeline.compiled) =
            Json.(
              Obj
                [
                  ("loop", String c.Pipeline.source.Loop.name);
                  ( "target",
                    String (Pipeline.target_to_string c.Pipeline.target) );
                  ("unroll", Int c.Pipeline.unroll_factor);
                  ("ii", Int c.Pipeline.schedule.Schedule.ii);
                  ("stages", Int (Schedule.stage_count c.Pipeline.schedule));
                  ("estimated_cycles", Int c.Pipeline.estimated_cycles);
                ])
          in
          let rows = List.map row (Context.compiled ctx b spec) in
          Ok [ ("loops", Json.List rows) ])
  | Proto.Simulate { bench; arch; heuristic; ab_entries; hints; trip_cap } -> (
      match find_bench bench with
      | None -> Error ("unknown_benchmark", bench)
      | Some b ->
          let base = Context.cfg ctx in
          let cfg =
            {
              base with
              Config.ab_entries =
                Option.value ~default:base.Config.ab_entries ab_entries;
            }
          in
          simulate_cell ctx ~cfg b (Context.interleaved heuristic) ~trip_cap
            (Context.cell ?ab_entries ~hints arch))
  | Proto.Analyze { bench } -> (
      match bench_filter bench with
      | Error e -> Error e
      | Ok benchmarks ->
          let s =
            Analyze.run_all ~cfg:(Context.cfg ctx) ?benchmarks (null_ppf ())
          in
          Ok [ ("summary", Json.Obj (Analyze.summary_fields s)) ])
  | Proto.Explain { bench } -> (
      match bench_filter bench with
      | Error e -> Error e
      | Ok benchmarks ->
          let s =
            Explain.run_all ~cfg:(Context.cfg ctx) ?benchmarks (null_ppf ())
          in
          Ok [ ("summary", Explain.summary_json s) ])
  | Proto.Oracle { bench; budget } -> (
      match bench_filter bench with
      | Error e -> Error e
      | Ok benchmarks ->
          let s =
            Explain.run_all ~cfg:(Context.cfg ctx) ?benchmarks
              ~oracle_budget:budget
              ~oracle_memo:(Context.oracle_memo ctx)
              (null_ppf ())
          in
          let row (r : Explain.oracle_row) =
            let c = r.Explain.o_cert in
            Json.(
              Obj
                [
                  ("bench", String r.Explain.o_bench);
                  ("loop", String r.Explain.o_loop);
                  ("target", String r.Explain.o_target);
                  ("ii", Int c.Oracle.heuristic_ii);
                  ("floor", Int c.Oracle.floor);
                  ( "minimal_ii",
                    Option.fold ~none:Null ~some:(fun m -> Int m)
                      c.Oracle.minimal_ii );
                  ("proven_floor", Int c.Oracle.infeasible_below);
                  ( "verdict",
                    String (Oracle.verdict_to_string c.Oracle.verdict) );
                  ("decisions", Int c.Oracle.decisions);
                  ("conflicts", Int c.Oracle.conflicts);
                ])
          in
          Ok
            [ ("leaderboard", Json.List (List.map row s.Explain.leaderboard)) ])
  | Proto.Sweep_cell
      { bench; buses; ab_entries; cache_size; associativity; trip_cap } -> (
      match find_bench bench with
      | None -> Error ("unknown_benchmark", bench)
      | Some b ->
          let base = Context.cfg ctx in
          let cfg =
            {
              base with
              Config.n_reg_buses =
                Option.value ~default:base.Config.n_reg_buses buses;
              n_mem_buses = Option.value ~default:base.Config.n_mem_buses buses;
              cache_size =
                Option.value ~default:base.Config.cache_size cache_size;
              associativity =
                Option.value ~default:base.Config.associativity associativity;
              ab_entries =
                Option.value ~default:base.Config.ab_entries ab_entries;
            }
          in
          let arch =
            Machine.Word_interleaved { attraction_buffers = ab_entries <> None }
          in
          simulate_cell (Context.with_cfg ctx cfg) ~cfg b
            (Context.interleaved `Ipbc) ~trip_cap:(Some trip_cap)
            (Context.cell arch))

let sanitize_exn e =
  let s = Printexc.to_string e in
  let s = String.map (fun c -> if c = '\n' || c = '\r' then ' ' else c) s in
  if String.length s > 160 then String.sub s 0 160 ^ "..." else s

let handle_request ctx tally ~wall_times ~default_deadline ~seq
    (env : Proto.envelope) fault =
  let t0 = if wall_times then Unix.gettimeofday () else 0. in
  let kind = Proto.request_kind env.Proto.req in
  let budget =
    match (fault, env.Proto.deadline) with
    | Some Faults.Budget_exhaustion, _ -> 0
    | _, Some d -> d
    | _, None -> default_deadline
  in
  let token = Cancel.create ~budget in
  let outcome =
    match
      Pool.sequential_scope (fun () ->
          Cancel.with_token token (fun () ->
              (match fault with
              | Some Faults.Budget_exhaustion ->
                  Cancel.tick ~stage:"injected budget exhaustion" 1
              | Some Faults.Worker_exception ->
                  raise (Faults.Injected "injected worker exception")
              | _ -> ());
              payload ctx env.Proto.req))
    with
    | Ok body -> `Ok body
    | Error (k, d) -> `Err (k, d)
    | exception Cancel.Cancelled { stage; spent; budget } ->
        `Timeout (stage, spent, budget)
    | exception Faults.Injected msg -> `Internal ("Faults.Injected", msg)
    | exception Pipeline.Scheduling_failed msg ->
        `Err ("scheduling_failed", msg)
    | exception Out_of_memory -> `Internal ("Out_of_memory", "")
    | exception Stack_overflow -> `Internal ("Stack_overflow", "")
    | exception e -> `Internal (sanitize_exn e, "")
  in
  let ms =
    if wall_times then Some ((Unix.gettimeofday () -. t0) *. 1000.) else None
  in
  let fields =
    match outcome with
    | `Ok body ->
        bump tally (fun t -> t.t_ok <- t.t_ok + 1);
        ("status", Json.String "ok") :: body
    | `Err (kind, detail) ->
        bump tally (fun t -> t.t_errors <- t.t_errors + 1);
        error_fields ~kind ~detail
    | `Timeout (stage, spent, budget) ->
        bump tally (fun t -> t.t_timeouts <- t.t_timeouts + 1);
        Json.
          [
            ("status", String "timeout"); ("stage", String stage);
            ("work", Int spent); ("budget", Int budget);
          ]
    | `Internal (exn_name, detail) ->
        bump tally (fun t -> t.t_internal <- t.t_internal + 1);
        Json.
          [
            ("status", String "internal_error");
            ( "error",
              Obj
                [
                  ("kind", String "exception"); ("exception", String exn_name);
                  ("detail", String detail);
                ] );
          ]
  in
  response_line ~seq ?id:env.Proto.id ~req:kind ?ms fields

(* --------------------------------------------------------- the server *)

(* Bytes one request line may carry. *)
let max_line = 65536

let run ?(jobs = 1) ?(queue_cap = 128) ?chaos ?(wall_times = false)
    ?(default_deadline = max_int / 4) ?drain_flag ?ctx ~input ~output () =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let ctx = match ctx with Some c -> c | None -> Context.create () in
  let drain_flag =
    match drain_flag with Some f -> f | None -> Atomic.make false
  in
  let plan = Option.map (fun seed -> Faults.create ~seed) chaos in
  (* The service's own worker count is deliberately NOT clamped to the
     hardware (unlike Pool.effective_jobs): a blocked memo waiter holds
     no core, and the jobs>1 dispatch path must be testable on a 1-core
     CI host. *)
  let jobs = max 1 (min jobs 64) in
  let em = emitter_create output in
  let tally = tally_create () in
  let wq = if jobs > 1 then Some (wq_create queue_cap) else None in
  let workers =
    match wq with
    | None -> []
    | Some q -> List.init jobs (fun _ -> Sync.spawn (fun () -> wq_worker q))
  in
  let seq = ref 0 in
  (* (reason, drain request's seq/id when drained by request) *)
  let stop : (string * (int * string option) option) option ref = ref None in
  let health_line ~seq ~id =
    response_line ~seq ?id ~req:"health"
      [ ("status", Json.String "ok"); counters_json tally; memos_json ctx ]
  in
  let handle_line line =
    let s = !seq in
    incr seq;
    bump tally (fun t -> t.t_accepted <- t.t_accepted + 1);
    let fault = Option.map (fun p -> Faults.for_request p s) plan in
    let fault = Option.join fault in
    let line =
      match (plan, fault) with
      | Some p, Some Faults.Decode_corruption -> Faults.corrupt p s line
      | _ -> line
    in
    match Proto.decode line with
    | Error { Proto.kind; detail } ->
        bump tally (fun t -> t.t_errors <- t.t_errors + 1);
        emit em s (error_line ~seq:s ~kind ~detail)
    | Ok env -> (
        match env.Proto.req with
        | Proto.Health ->
            (* barrier: report only fully-settled state *)
            wait_until em s;
            bump tally (fun t -> t.t_ok <- t.t_ok + 1);
            emit em s (health_line ~seq:s ~id:env.Proto.id)
        | Proto.Drain ->
            wait_until em s;
            stop := Some ("request", Some (s, env.Proto.id))
        | _ -> (
            match fault with
            | Some Faults.Queue_full ->
                bump tally (fun t -> t.t_shed <- t.t_shed + 1);
                emit em s
                  (overloaded_line ~seq:s ~id:env.Proto.id
                     ~req:(Proto.request_kind env.Proto.req)
                     ~detail:"injected queue-full")
            | _ -> (
                let task () =
                  emit em s
                    (handle_request ctx tally ~wall_times ~default_deadline
                       ~seq:s env fault)
                in
                match wq with
                | None -> task ()
                | Some q ->
                    if not (wq_push q task) then begin
                      bump tally (fun t -> t.t_shed <- t.t_shed + 1);
                      emit em s
                        (overloaded_line ~seq:s ~id:env.Proto.id
                           ~req:(Proto.request_kind env.Proto.req)
                           ~detail:"queue full")
                    end)))
  in
  (* Line framing over the raw fd, polled so the SIGINT drain flag is
     observed within ~50ms even when the client is idle.  A line past
     [max_line] is answered with one "oversized" error and the rest of
     it discarded up to its newline. *)
  let cur = Buffer.create 256 in
  let cur_dropped = ref false in
  let feed_byte c =
    if c = '\n' then begin
      if !cur_dropped then cur_dropped := false
      else begin
        let line = Buffer.contents cur in
        Buffer.clear cur;
        handle_line line
      end
    end
    else if not !cur_dropped then begin
      Buffer.add_char cur c;
      if Buffer.length cur > max_line then begin
        let s = !seq in
        incr seq;
        bump tally (fun t ->
            t.t_accepted <- t.t_accepted + 1;
            t.t_errors <- t.t_errors + 1);
        emit em s
          (error_line ~seq:s ~kind:"oversized"
             ~detail:(Printf.sprintf "request line exceeds %d bytes" max_line));
        Buffer.clear cur;
        cur_dropped := true
      end
    end
  in
  let chunk = Bytes.create 8192 in
  let rec read_loop () =
    match !stop with
    | Some _ -> ()
    | None ->
        if Atomic.get drain_flag then stop := Some ("sigint", None)
        else begin
          (match Unix.select [ input ] [] [] 0.05 with
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
          | [], _, _ -> ()
          | _ :: _, _, _ -> (
              match Unix.read input chunk 0 (Bytes.length chunk) with
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
              | 0 ->
                  (* EOF: a final unterminated line still counts as a
                     request — clients that forget the last newline get
                     an answer, not silence. *)
                  if (not !cur_dropped) && Buffer.length cur > 0 then begin
                    let line = Buffer.contents cur in
                    Buffer.clear cur;
                    handle_line line
                  end;
                  if !stop = None then stop := Some ("eof", None)
              | n ->
                  let i = ref 0 in
                  while !i < n && !stop = None do
                    feed_byte (Bytes.get chunk !i);
                    incr i
                  done));
          read_loop ()
        end
  in
  read_loop ();
  let reason, drain_req =
    match !stop with Some (r, d) -> (r, d) | None -> ("eof", None)
  in
  (* Finish in-flight work: every dispatched sequence number below the
     drain point must have been emitted before the drained line. *)
  let drained_seq, drained_id =
    match drain_req with
    | Some (s, id) -> (s, id) (* wait_until em s already ran *)
    | None ->
        wait_until em !seq;
        (!seq, None)
  in
  let watermark = match wq with None -> 0 | Some q -> Wq.watermark q in
  let drained =
    response_line ~seq:drained_seq ?id:drained_id ~req:"drain"
      [
        ("status", Json.String "drained"); ("reason", Json.String reason);
        counters_json ?watermark:(if wall_times then Some watermark else None)
          tally;
        memos_json ctx;
      ]
  in
  emit em drained_seq drained;
  (match wq with
  | None -> ()
  | Some q -> wq_shutdown q workers);
  (try flush output with Sys_error _ -> ());
  let accepted, ok, errors, timeouts, internal, shed = tally_read tally in
  {
    counters =
      {
        accepted;
        ok;
        errors;
        timeouts;
        internal_errors = internal;
        shed;
        high_watermark = watermark;
      };
    reason;
  }
