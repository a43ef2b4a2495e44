(* [Pipeline.compile] results seen through the library's one public
   hook: kept while [recording], then checked (deep verifier, kernel
   against the reference executor) and, in the traced run, replayed
   stage by stage through the public stage functions and through the
   executor to time each layer. *)

module Config = Vliw_arch.Config
module Loop = Vliw_ir.Loop
module Pipeline = Vliw_core.Pipeline
module Unroll_select = Vliw_core.Unroll_select
module Schedule = Vliw_sched.Schedule
module WL = Vliw_workloads
module Executor = Vliw_sim.Executor
module Machine = Vliw_sim.Machine
module Stats = Vliw_sim.Stats

type captured = { cfg : Config.t; c : Pipeline.compiled; seed : int }

(* The seed of the layouts the compiles now running profile with: the
   workload sets it before each call into the library. *)
let seed = Atomic.make 0

(* Seeds a compile may have used other than [seed] (the service's
   explain handler always profiles at the library's default seed). *)
let other_seeds : int list ref = ref []

let recording = Atomic.make false
let kept : captured list ref = ref []
let mutex = Mutex.create ()

(* While [cutting], each compile's loop and unroll factor and the time it
   finished, latest first. *)
let cutting = Atomic.make false
let cuts : (string * float) list ref = ref []

let install () =
  Pipeline.check_hook :=
    fun cfg c ->
      if Atomic.get cutting then begin
        let cut =
          ( Printf.sprintf "%s x%d" c.Pipeline.source.Loop.name
              c.Pipeline.unroll_factor,
            Measure.now () )
        in
        Mutex.lock mutex;
        cuts := cut :: !cuts;
        Mutex.unlock mutex
      end;
      if Atomic.get recording then begin
        let t0 = Measure.now () in
        Mutex.lock mutex;
        kept := { cfg; c; seed = Atomic.get seed } :: !kept;
        Mutex.unlock mutex;
        if !Spans.enabled then Spans.charge (Measure.now () -. t0)
      end

let recording_during f =
  Atomic.set recording true;
  Fun.protect ~finally:(fun () -> Atomic.set recording false) f

(* [f ()] and its duration cut at the end of each compile it makes into
   segments, each named by the compile that ends it (the last one
   "end"), with its seconds. *)
let cut_at_compiles f =
  cuts := [];
  let t0 = Measure.now () in
  Atomic.set cutting true;
  let r = Fun.protect ~finally:(fun () -> Atomic.set cutting false) f in
  let ends = List.rev (("end", Measure.now ()) :: !cuts) in
  cuts := [];
  let _, segments =
    List.fold_left
      (fun (prev, acc) (name, t) -> (t, (name, t -. prev) :: acc))
      (t0, []) ends
  in
  (r, List.rev segments)

let take () =
  Mutex.lock mutex;
  let l = List.rev !kept in
  kept := [];
  Mutex.unlock mutex;
  l

(* ----------------------------------------------------------- layouts *)

(* Layouts are built outside [Pipeline.compile] (by its caller), so the
   replay builds them once per (config, alignment, run, seed) and keeps
   them out of the stage times. *)
let layouts = Hashtbl.create 16

let layout cfg ~aligned ~run ~seed =
  let key = (Config.fingerprint cfg, aligned, run, seed) in
  match Hashtbl.find_opt layouts key with
  | Some l -> l
  | None ->
      let l = WL.Layout.create cfg ~aligned ~run ~seed in
      Hashtbl.add layouts key l;
      l

(* ------------------------------------------------------ stage replay *)

let stage ?(name = "") layer f =
  Spans.with_span ~track:2 layer (if name = "" then layer else name) f

(* [Pipeline.policy_of_target] is internal to the pipeline; this mirrors
   it, and the replay's match on [considered] and II fails loudly if the
   two ever disagree. *)
let policy target ~chains ~profile =
  let module CH = Vliw_core.Cluster_heuristic in
  match target with
  | Pipeline.Interleaved { heuristic = `Ibc; chains = true } | Pipeline.Multivliw
    ->
      CH.Ibc chains
  | Pipeline.Interleaved { heuristic = `Ipbc; chains = true } ->
      CH.Ipbc (chains, profile)
  | Pipeline.Interleaved { heuristic = `Ipbc; chains = false } ->
      CH.Preferred_no_chains profile
  | Pipeline.Interleaved { heuristic = `Ibc; chains = false }
  | Pipeline.Unified _ ->
      CH.All_free

(* [Pipeline.compile] as its public stage sequence, each stage in its
   own span.  Returns (considered, chosen factor, chosen II). *)
let staged cfg ~target ~strategy ~profiler (source : Loop.t) =
  let base_profile = stage "profiling" (fun () -> profiler source) in
  let factors =
    stage "unroll_select" (fun () ->
        Unroll_select.candidate_factors cfg source.Loop.ddg
          ~profile:base_profile strategy)
  in
  let candidate factor =
    let loop =
      stage ~name:"unroll" "unroll_select" (fun () ->
          Loop.unrolled source ~factor)
    in
    let profile =
      if factor = 1 then base_profile
      else stage "profiling" (fun () -> profiler loop)
    in
    let mode = Pipeline.mode_of_target cfg target in
    let latencies =
      stage "latency_assign" (fun () ->
          Vliw_core.Latency_assign.assign cfg loop.Loop.ddg ~mode ~profile)
    in
    let chains =
      stage "chains" (fun () -> Vliw_core.Chains.build loop.Loop.ddg)
    in
    let hooks =
      stage "cluster_heuristic" (fun () ->
          Vliw_core.Cluster_heuristic.hooks loop.Loop.ddg
            (policy target ~chains ~profile))
    in
    stage "engine" (fun () ->
        Vliw_sched.Engine.schedule cfg loop.Loop.ddg
          ~latency:(fun i -> latencies.(i))
          ~hooks
          ~allow_cross_cluster_mem:(Pipeline.allow_cross_cluster_mem target)
          ())
    |> Option.map (fun (s : Schedule.t) ->
           ( factor,
             Unroll_select.estimated_cycles ~trip_count:loop.Loop.trip_count
               ~ii:s.Schedule.ii ~stage_count:(Schedule.stage_count s),
             s.Schedule.ii ))
  in
  let cands = List.map candidate factors in
  match List.filter_map Fun.id cands with
  | first :: rest when List.length rest + 1 = List.length cands ->
      (* Pipeline.compile's choice: on an exact Texec tie the larger
         factor wins. *)
      let f, _, ii =
        List.fold_left
          (fun ((_, bt, _) as best) ((_, t, _) as c) ->
            if t <= bt then c else best)
          first rest
      in
      Some (List.map (fun (f, t, _) -> (f, t)) (first :: rest), f, ii)
  | _ -> None

(* The hook sees the compiled record but not the unroll strategy or the
   layout alignment its caller chose; [considered] narrows the strategy,
   and the replay tries each candidate until it reproduces [considered],
   the factor and the II exactly. *)
let attempts cap =
  let c = cap.c in
  let strategies =
    let open Unroll_select in
    match c.Pipeline.considered with
    | _ :: _ :: _ -> [ Selective ]
    | [ (1, _) ] -> [ No_unrolling; Selective; Ouf_unrolling; Unroll_times_n ]
    | _ -> [ Ouf_unrolling; Unroll_times_n; Selective; No_unrolling ]
  in
  List.concat_map
    (fun seed ->
      List.concat_map
        (fun aligned -> List.map (fun s -> (s, aligned, seed)) strategies)
        [ true; false ])
    (cap.seed :: List.filter (( <> ) cap.seed) !other_seeds)

type replayed = {
  cap : captured;
  strategy : Unroll_select.strategy;
  aligned : bool;
  seed : int;  (** the layouts' seed *)
}

let profiler cap ~aligned ~seed =
  WL.Profiling.profiler cap.cfg
    (layout cap.cfg ~aligned ~run:WL.Layout.Profile_run ~seed)

let run_staged cap ~strategy ~aligned ~seed =
  stage ~name:("compile " ^ cap.c.Pipeline.source.Loop.name) "pipeline"
    (fun () ->
      staged cap.cfg ~target:cap.c.Pipeline.target ~strategy
        ~profiler:(profiler cap ~aligned ~seed)
        cap.c.Pipeline.source)

let replay_one cap =
  let c = cap.c in
  let rec go = function
    | [] -> None
    | (strategy, aligned, seed) :: rest -> (
        let m = Spans.mark () in
        match run_staged cap ~strategy ~aligned ~seed with
        | Some (considered, f, ii)
          when considered = c.Pipeline.considered
               && f = c.Pipeline.unroll_factor
               && ii = c.Pipeline.schedule.Schedule.ii ->
            Some { cap; strategy; aligned; seed }
        | _ ->
            Spans.rollback m;
            go rest)
  in
  go (attempts cap)

(* The stage replay must add up to one [Pipeline.compile] call, or some
   stage is not being measured.  The two sides alternate, twice each,
   and each keeps its faster time, so the comparison is of work, not of
   the host's noise.  Spans are off meanwhile. *)
let reconcile rs =
  let time f = snd (Measure.time f) in
  Spans.enabled := false;
  let staged_s, whole_s =
    List.fold_left
      (fun (st, wh) r ->
        let cap = r.cap and aligned = r.aligned and seed = r.seed in
        let strategy = r.strategy in
        let staged () = run_staged cap ~strategy ~aligned ~seed in
        let whole () =
          Pipeline.compile cap.cfg ~target:cap.c.Pipeline.target ~strategy
            ~profiler:(profiler cap ~aligned ~seed)
            cap.c.Pipeline.source
        in
        let s1 = time staged in
        let w1 = time whole in
        let s2 = time staged in
        let w2 = time whole in
        (st +. Float.min s1 s2, wh +. Float.min w1 w2))
      (0.0, 0.0) rs
  in
  Spans.enabled := true;
  (staged_s, whole_s)

(* ---------------------------------------------------- executor replay *)

type sim = {
  mutable solo_accesses : int;
  mutable batched_cells : int;
  mutable batched_cell_accesses : int;
}

let ab_points = [ 2; 4; 8; 16; 32; 64; 128; 256 ]

(* One full-length run of a replayed interleaved plan through each
   executor path: the address trace, a solo kernel run with attraction
   buffers, and an 8-cell batch over attraction-buffer capacities. *)
let replay_executor sim r =
  match r.cap.c.Pipeline.target with
  | Pipeline.Unified _ | Pipeline.Multivliw -> ()
  | Pipeline.Interleaved _ ->
      let cfg = r.cap.cfg and c = r.cap.c in
      let exec =
        layout cfg ~aligned:r.aligned ~run:WL.Layout.Execution_run
          ~seed:r.seed
      in
      let addr_of = WL.Layout.addr_fn exec c.Pipeline.loop.Loop.ddg in
      let trace =
        stage "executor.trace" (fun () -> Executor.address_trace c ~addr_of)
      in
      let arch = Machine.Word_interleaved { attraction_buffers = true } in
      let machine = Machine.create cfg arch in
      let solo =
        stage "executor.solo" (fun () ->
            Executor.run_loop cfg machine c ~addr_trace:trace ())
      in
      let cells =
        Array.map
          (fun m -> { Executor.machine = m; attractable = None })
          (Machine.create_batch cfg
             (List.map (fun ab -> (arch, Some ab)) ab_points))
      in
      let batched =
        stage "executor.batched" (fun () ->
            Executor.run_loop_batched cfg cells c ~addr_trace:trace ())
      in
      sim.solo_accesses <- sim.solo_accesses + Stats.total_accesses solo;
      sim.batched_cells <- sim.batched_cells + Array.length batched;
      sim.batched_cell_accesses <-
        Array.fold_left
          (fun acc s -> acc + Stats.total_accesses s)
          sim.batched_cell_accesses batched

(* ------------------------------------------------------ the replay *)

(* [k] elements of [l] drawn without replacement by a seeded shuffle. *)
let sample ~seed k l =
  let a = Array.of_list l in
  let rng = Random.State.make [| seed; 0x5eed |] in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list (Array.sub a 0 (min k (Array.length a)))

let distinct_plans rs =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun r ->
      let c = r.cap.c in
      let key =
        ( Config.fingerprint r.cap.cfg,
          Pipeline.target_to_string c.Pipeline.target,
          c.Pipeline.source.Loop.name,
          c.Pipeline.unroll_factor,
          r.seed,
          r.aligned )
      in
      if Hashtbl.mem seen key then false
      else begin
        Hashtbl.add seen key ();
        true
      end)
    rs

(* The traced run's replay of the kept compiles: per-layer compile and
   simulator metrics, and the checks that the replay is complete (every
   compile reproduced) and reconciles (on a seeded sample, the stage
   times add up to one [Pipeline.compile] call within 10 %). *)
let replay ~seed caps =
  let replayed = List.map (fun cap -> (cap, replay_one cap)) caps in
  let missed =
    List.filter_map
      (fun (cap, r) ->
        if r = None then Some cap.c.Pipeline.source.Loop.name else None)
      replayed
  in
  let ok = List.filter_map snd replayed in
  let recon = sample ~seed 32 ok in
  let staged_s, whole_s = reconcile recon in
  let sim =
    { solo_accesses = 0; batched_cells = 0; batched_cell_accesses = 0 }
  in
  List.iter (replay_executor sim) (distinct_plans ok);
  let by_layer = Spans.self_by_layer () in
  let self l = Spans.self_s by_layer l in
  let sum_caps f = List.fold_left (fun acc cap -> acc + f cap) 0 caps in
  let candidates =
    sum_caps (fun cap -> List.length cap.c.Pipeline.considered)
  in
  let per_access s n = Measure.ratio (s *. 1e9) (float_of_int n) in
  let metrics =
    Measure.
      [
        count "pipeline.loops_compiled" (List.length caps);
        metric "profiling.self_s" "s" (self "profiling");
        count "profiling.calls"
          (sum_caps (fun cap ->
               1
               + List.length
                   (List.filter
                      (fun (f, _) -> f <> 1)
                      cap.c.Pipeline.considered)));
        metric "unroll_select.self_s" "s" (self "unroll_select");
        count "unroll_select.candidates" candidates;
        metric "latency_assign.self_s" "s" (self "latency_assign");
        metric "chains.self_s" "s" (self "chains");
        metric "cluster_heuristic.self_s" "s" (self "cluster_heuristic");
        metric "engine.self_s" "s" (self "engine");
        count "engine.ii_excess"
          (sum_caps (fun cap ->
               let c = cap.c in
               c.Pipeline.schedule.Schedule.ii
               - Vliw_sched.Resources.mii cap.cfg c.Pipeline.loop.Loop.ddg
                   ~latency:(fun i -> c.Pipeline.latencies.(i))));
        count "mrt.bus_rejections"
          (sum_caps (fun cap -> cap.c.Pipeline.bus_window_rejections));
        metric "executor.trace_s" "s" (self "executor.trace");
        metric "executor.solo_s" "s" (self "executor.solo");
        count "executor.solo_accesses" sim.solo_accesses;
        metric "executor.solo_ns_per_access" "ns"
          (per_access (self "executor.solo") sim.solo_accesses);
        metric "executor.batched_s" "s" (self "executor.batched");
        count "executor.batched_cells" sim.batched_cells;
        count "executor.batched_cell_accesses" sim.batched_cell_accesses;
        metric "executor.batched_ns_per_cell_access" "ns"
          (per_access (self "executor.batched") sim.batched_cell_accesses);
      ]
  in
  let checks =
    [
      ( Printf.sprintf "replay reproduces all %d compiles%s" (List.length caps)
          (if missed = [] then ""
           else " (missed: " ^ String.concat ", " missed ^ ")"),
        missed = [] && caps <> [] );
      ( Printf.sprintf
          "stage replay adds up to Pipeline.compile (%.3f s staged vs %.3f s \
           whole on %d compiles)"
          staged_s whole_s (List.length recon),
        Float.abs (staged_s -. whole_s) <= 0.1 *. whole_s );
    ]
  in
  (metrics, checks)

(* ------------------------------------------------------------ checks *)

(* Deep verifier (linter + schedule verifier) over one compile. *)
let verifies cap =
  not
    (Vliw_analysis.Diagnostic.has_errors
       (Vliw_analysis.Analyze.compiled_diags cap.cfg cap.c))

let backends =
  [
    Machine.Word_interleaved { attraction_buffers = true };
    Machine.Word_interleaved { attraction_buffers = false };
    Machine.Unified { slow = true };
    Machine.Multivliw;
  ]

(* The access-plan kernel against the list-based reference executor on
   one compile and one backend: bit-identical statistics. *)
let kernel_matches_reference cap arch =
  let cfg = cap.cfg and c = cap.c in
  let addr_of =
    WL.Layout.addr_fn
      (layout cfg ~aligned:true ~run:WL.Layout.Execution_run ~seed:cap.seed)
      c.Pipeline.loop.Loop.ddg
  in
  Stats.equal
    (Executor.run_loop cfg (Machine.create cfg arch) c ~addr_of ())
    (Executor.run_loop_reference cfg (Machine.create cfg arch) c ~addr_of ())

(* The correctness checks every workload runs on its kept compiles:
   each must pass the deep verifier, and on a seeded sample of 8 the
   kernel must agree with the reference executor on all 4 backends. *)
let checks ~seed caps =
  let unverified = List.filter (fun cap -> not (verifies cap)) caps in
  let mismatches =
    List.concat_map
      (fun cap ->
        List.filter_map
          (fun arch ->
            if kernel_matches_reference cap arch then None
            else
              Some
                (Printf.sprintf "%s on %s" cap.c.Pipeline.source.Loop.name
                   (Machine.arch_to_string arch)))
          backends)
      (sample ~seed 8 caps)
  in
  [
    ( Printf.sprintf "deep verifier on %d compiles" (List.length caps),
      unverified = [] && caps <> [] );
    ( Printf.sprintf "kernel = reference executor on %d loop x backend runs%s"
        (min 8 (List.length caps) * List.length backends)
        (if mismatches = [] then ""
         else " (differ: " ^ String.concat ", " mismatches ^ ")"),
      mismatches = [] );
  ]
