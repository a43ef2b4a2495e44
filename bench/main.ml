(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation section (see DESIGN.md's experiment index) and
   times the compiler itself with bechamel.

     dune exec bench/main.exe                      -- run everything
     dune exec bench/main.exe fig4 fig8            -- run a subset
     dune exec bench/main.exe -- --jobs 4 fig4     -- 4 worker domains

   --jobs N (default: all cores) sizes the domain pool the experiment
   drivers fan their per-benchmark cells out on; --jobs 1 reproduces the
   strictly sequential run.  Either way the rendered output is
   byte-identical (see DESIGN.md, "Performance & parallel runner"). *)

module E = Vliw_experiments
module Pool = Vliw_parallel.Pool
module Json = Vliw_report.Json
module Explain = Vliw_analysis.Explain
module Oracle = Vliw_analysis.Oracle
module Serve = Vliw_service.Serve
module Concsan = Vliw_concsan.Concsan

let ppf = Format.std_formatter

let banner name =
  Format.fprintf ppf "@.==== %s ====@.@." name

(* ------------------------------------------------ BENCH_compile.json *)

(* Machine-readable perf trajectory: bechamel's ns/run per compile-path
   micro-benchmark plus the end-to-end wall-clock of the figure suite,
   the sweeps, the analyzers, the oracle, the service and the
   concurrency sanitizer.  Each run compares itself against the
   committed file's values to catch regressions. *)

let baseline_path = "BENCH_compile.json"

(* Run [f] on a buffer formatter with [jobs] worker domains, restoring
   the previous setting afterwards, and return (wall-clock seconds, f's
   result, what f printed).  The default of one job makes a figure track
   single-core cost, not pool scaling. *)
let timed ?(jobs = 1) f =
  let saved = Pool.default_jobs () in
  Pool.set_default_jobs jobs;
  Fun.protect
    ~finally:(fun () -> Pool.set_default_jobs saved)
    (fun () ->
      let buf = Buffer.create 65536 in
      let bppf = Format.formatter_of_buffer buf in
      let t0 = Unix.gettimeofday () in
      let r = f bppf in
      Format.pp_print_flush bppf ();
      (Unix.gettimeofday () -. t0, r, Buffer.contents buf))

(* The DSE autopilot on its full default grid (>= 1000 cells over the
   whole suite), sequential on a fresh context — the source of the
   sweep_cells_per_s trajectory key.  Afterwards, the >=2x criterion:
   the plan-group path evaluates one 72-cell group from cold (compile
   each benchmark's plan once, resolve each address trace once, one
   lockstep batch per benchmark), against a solo-cell baseline that
   evaluates a sample of the same cells the way a naive autopilot
   would — each on its own cold context, paying compile, trace and
   simulation in isolation.  Both sides are throughput (cells/s) over
   identical per-cell work, so the ratio is what grouping + batching
   actually buys. *)
let timed_dse () =
  let wall, r, _ = timed (fun _ -> E.Dse.sweep (E.Context.create ())) in
  let spec = E.Context.interleaved `Ipbc in
  let fam = List.hd (E.Dse.enumerate E.Dse.default_grid) in
  let plan, cells = List.hd fam.E.Dse.f_levels in
  let mk_cell (ccfg, ab) =
    E.Context.cell ~cfg:ccfg
      (Vliw_sim.Machine.Word_interleaved { attraction_buffers = ab > 0 })
  in
  let benches =
    List.map Vliw_workloads.Mediabench.find [ "gsmdec"; "epicdec"; "jpegenc" ]
  in
  let bcells = List.map mk_cell cells in
  let batched_s, (), _ =
    timed (fun _ ->
        let batch_ctx = E.Context.with_cfg (E.Context.create ()) plan in
        List.iter
          (fun b ->
            ignore (E.Context.run_batch batch_ctx b spec ~trip_cap:512 bcells))
          benches)
  in
  (* Every 9th cell: 8 of the 72, spanning the cache/AB range. *)
  let sample = List.filteri (fun i _ -> i mod 9 = 0) cells in
  let solo_s, (), _ =
    timed (fun _ ->
        List.iter
          (fun cell ->
            let solo_ctx = E.Context.with_cfg (E.Context.create ()) plan in
            List.iter
              (fun b ->
                ignore
                  (E.Context.run_batch solo_ctx b spec ~trip_cap:512
                     [ mk_cell cell ]))
              benches)
          sample)
  in
  let rate n s = if s > 0.0 then float_of_int n /. s else 0.0 in
  ( wall,
    r,
    rate (List.length bcells) batched_s,
    rate (List.length sample) solo_s,
    List.length bcells )

(* The exact-II oracle on a bounded gap-loop subset (four certifications
   that all close within the default budget), sequential on a fresh
   memo.  Budgets are decision counts so the certified results are
   host-independent; only this wall-clock figure tracks the solver's
   engineering cost. *)
let oracle_bench_subset = [ "gsmdec"; "jpegdec"; "rasta" ]

(* The resident compile service, end to end: a pipelined client drives
   thousands of mixed requests (health probes, compiles and batched
   simulations that hit the shared memos after their first occurrence)
   through [Serve.run] on a pipe-pair stdio transport.  The server runs
   in its own domain at jobs=1 — the figure tracks the per-request
   overhead of the service loop itself (decode, dispatch, in-order
   emission), which is what a resident service must keep flat.
   Wall-times are enabled so every response carries its handler-side
   ["ms"] figure; p99 over those is the tail-latency trajectory key. *)
let serve_request_count = 2400

let timed_serve () =
  let mix =
    [|
      {|{"req":"health"}|};
      {|{"req":"compile","bench":"gsmdec"}|};
      {|{"req":"simulate","bench":"gsmdec","trip_cap":32}|};
      {|{"req":"compile","bench":"rasta"}|};
      {|{"req":"simulate","bench":"rasta","arch":"interleaved+ab","trip_cap":32}|};
      {|{"req":"compile","bench":"gsmdec","heuristic":"ibc"}|};
    |]
  in
  let r, w = Unix.pipe () in
  let path = Filename.temp_file "vliw_bench_serve" ".out" in
  let out = open_out path in
  let t0 = Unix.gettimeofday () in
  let server =
    Domain.spawn (fun () ->
        Serve.run ~jobs:1 ~wall_times:true ~input:r ~output:out ())
  in
  let send line =
    let line = line ^ "\n" in
    let len = String.length line in
    let sent = ref 0 in
    while !sent < len do
      sent := !sent + Unix.write_substring w line !sent (len - !sent)
    done
  in
  for i = 0 to serve_request_count - 1 do
    send mix.(i mod Array.length mix)
  done;
  send {|{"req":"drain"}|};
  Unix.close w;
  let outcome = Domain.join server in
  let wall = Unix.gettimeofday () -. t0 in
  Unix.close r;
  close_out out;
  (* Handler-side latency distribution from the per-response ms field. *)
  let ms = ref [] in
  In_channel.with_open_text path (fun ic ->
      try
        while true do
          match Json.parse (input_line ic) with
          | Ok doc ->
              Option.iter
                (fun v -> ms := v :: !ms)
                (Option.bind (Json.path [ "ms" ] doc) Json.number)
          | Error _ -> ()
        done
      with End_of_file -> ());
  Sys.remove path;
  let lat = Array.of_list !ms in
  Array.sort compare lat;
  let p99 =
    if Array.length lat = 0 then 0.0
    else lat.(min (Array.length lat - 1) (Array.length lat * 99 / 100))
  in
  let rps =
    if wall > 0.0 then float_of_int outcome.Serve.counters.Serve.accepted /. wall
    else 0.0
  in
  (wall, rps, p99, outcome)

(* The trajectory keys each run is held to against the committed
   baseline: key path, which direction is better, what the number
   measures, and what a 25 % move the wrong way points at. *)
let regression_checks =
  [
    ( [ "sweep_fig6_wall_s" ], `Lower, "fig6+traffic sweep",
      "the batched executor or the compile path got slower" );
    ( [ "sweep_cells_per_s" ], `Higher, "sweep throughput",
      "the DSE sweep's compile, batching or pruning got slower" );
    ( [ "oracle"; "oracle_wall_s" ], `Lower, "oracle sweep",
      "the CP solver or its propagators got slower" );
    ( [ "serve"; "serve_req_per_s" ], `Higher, "serve throughput",
      "the service loop's per-request overhead grew" );
    ( [ "serve"; "serve_p99_ms" ], `Lower, "serve p99 handler latency",
      "the slowest requests' handlers got slower" );
    ( [ "concsan"; "concsan_wall_s" ], `Lower, "concsan run",
      "the sync shim, trace analyzer, or DPOR explorer got slower" );
  ]

let check_regressions ~baseline doc =
  let value keys d =
    Option.bind (Json.path keys d) (fun v ->
        Option.map (fun x -> (x, Json.to_string v)) (Json.number v))
  in
  let compared =
    List.filter
      (fun (keys, better, what, hint) ->
        match (Option.bind baseline (value keys), value keys doc) with
        | Some (prev, prev_text), Some (now, now_text) when prev > 0.0 ->
            let regressed, side =
              match better with
              | `Lower -> (now > 1.25 *. prev, "over")
              | `Higher -> (now < 0.75 *. prev, "below")
            in
            if regressed then
              Format.fprintf ppf
                "*** WARNING: %s (%s %s) regressed more than 25%% %s the \
                 committed baseline (%s) — %s ***@."
                what (String.concat "." keys) now_text side prev_text hint;
            true
        | _ -> false)
      regression_checks
  in
  Format.fprintf ppf "compared %d/%d trajectory keys against the committed %s@."
    (List.length compared) (List.length regression_checks) baseline_path

let write_bench_json ~estimates =
  (* Read before this run overwrites it. *)
  let baseline =
    match In_channel.with_open_text baseline_path In_channel.input_all with
    | exception Sys_error _ -> None
    | text -> Result.to_option (Json.parse text)
  in
  let n = max 2 (Pool.default_jobs ()) in
  let effective = Pool.effective_jobs n in
  (* On a host whose hardware parallelism is 1 the pool degrades
     [--jobs n] to a sequential run, so a second measurement would time
     the identical code path and the ratio would be pure timer noise:
     skip the redundant run and record only the sequential figure.
     Each fig4 run gets a fresh context, so compilation is timed both
     times. *)
  let fig4 jobs =
    timed ~jobs (fun bppf -> E.Fig4.run bppf (E.Context.create ()))
  in
  let seq_s, (), seq_out = fig4 1 in
  let par =
    if effective <= 1 then None
    else
      let par_s, (), par_out = fig4 n in
      Some
        ( par_s,
          String.equal seq_out par_out,
          if par_s > 0.0 then seq_s /. par_s else 1.0 )
  in
  (* fig6 (AB on/off x heuristics) plus the traffic ablation on a fresh
     context: one compile of every swept plan plus the batched
     simulations. *)
  let sweep_s, (), _ =
    timed (fun bppf ->
        let ctx = E.Context.create () in
        E.Fig6.run bppf ctx;
        E.Ablation_traffic.run bppf ctx)
  in
  let dse_wall, dse_r, dse_batched_rate, dse_solo_rate, dse_group_cells =
    timed_dse ()
  in
  let dse_cells_per_s =
    if dse_wall > 0.0 then
      float_of_int dse_r.E.Dse.grid_cells_total /. dse_wall
    else 0.0
  in
  let dse_speedup =
    if dse_solo_rate > 0.0 then dse_batched_rate /. dse_solo_rate else 1.0
  in
  (* <= 1.0 means a batch of 8 cells beats 8 independent runs. *)
  let batched_vs_8_solo =
    match
      ( List.assoc_opt "vliw simulate/ipbc" estimates,
        List.assoc_opt "vliw simulate-batched/ipbc" estimates )
    with
    | Some solo, Some batched when solo > 0.0 -> Some (batched /. (8.0 *. solo))
    | _ -> None
  in
  (* The full static-analysis sweep and the explain sweep (attribution +
     locality abstract interpretation over every compiled loop). *)
  let analyze_s, (analyzed : Vliw_analysis.Analyze.summary), _ =
    timed Vliw_analysis.Analyze.run_all
  in
  let explain_s, (explained : Explain.summary), _ = timed Explain.run_all in
  let oracle_s, oracle_summary, _ =
    timed (fun bppf ->
        Explain.run_all ~benchmarks:oracle_bench_subset
          ~oracle_budget:Oracle.default_budget
          ~oracle_memo:(E.Context.oracle_memo (E.Context.create ()))
          bppf)
  in
  let serve_wall, serve_rps, serve_p99, serve_outcome = timed_serve () in
  (* The concurrency sanitizer, end to end: record the pool/memo and
     serve workloads through the sync shim, analyze both traces under
     lockset + happens-before, and explore every closed scenario with
     the DPOR explorer.  The wall-clock bounds what the concsan CI gate
     costs per run. *)
  let concsan_s, (cs : Concsan.summary), _ =
    timed ~jobs:(Pool.default_jobs ()) (fun bppf ->
        Concsan.run ~seed:Concsan.default_seed bppf)
  in
  let oracle_rows = oracle_summary.Explain.leaderboard in
  let count p = List.length (List.filter p oracle_rows) in
  let oracle_closed =
    count (fun r -> r.Explain.o_cert.Oracle.verdict <> Oracle.Unknown)
  in
  let oracle_unsound = count (fun r -> not (Oracle.sound r.Explain.o_cert)) in
  let sc = serve_outcome.Serve.counters in
  let opt name = function Some v -> [ (name, v) ] | None -> [] in
  let doc =
    Json.(
      Obj
        ([
           ("schema", Int 1);
           ( "bechamel_ns_per_run",
             Obj
               (List.map
                  (fun (name, ns) -> (name, Fixed (1, ns)))
                  (List.sort (fun (a, _) (b, _) -> compare a b) estimates)) );
         ]
        @ opt "simulate_batched_vs_8_solo_ratio"
            (Option.map (fun r -> Fixed (3, r)) batched_vs_8_solo)
        @ [
            ( "fig4_wall_s",
              Obj
                ([ ("jobs_1", Fixed (3, seq_s)) ]
                @ opt "jobs_n" (Option.map (fun (s, _, _) -> Fixed (3, s)) par)
                @ [
                    ("n", Int n); ("effective_jobs", Int effective);
                    ("skipped_degenerate", Bool (par = None));
                  ]
                @ opt "speedup" (Option.map (fun (_, _, x) -> Fixed (3, x)) par)
                @ opt "identical" (Option.map (fun (_, ok, _) -> Bool ok) par)) );
            ("sweep_fig6_wall_s", Fixed (3, sweep_s));
            ("sweep_cells_per_s", Fixed (1, dse_cells_per_s));
            ( "sweep_dse",
              Obj
                [
                  ("wall_s", Fixed (3, dse_wall));
                  ("grid_cells", Int dse_r.E.Dse.grid_cells_total);
                  ("evaluated_cells", Int (List.length dse_r.E.Dse.evaluated));
                  ("pruned_cells", Int dse_r.E.Dse.pruned_cells);
                  ("frontier_cells", Int (List.length dse_r.E.Dse.frontier));
                  ("batched_vs_solo_speedup", Fixed (2, dse_speedup));
                ] );
            ( "analyze",
              Obj
                [
                  ("wall_s", Fixed (3, analyze_s));
                  ("errors", Int analyzed.errors);
                  ("warnings", Int analyzed.warnings);
                ] );
            ( "explain",
              Obj
                [
                  ("wall_s", Fixed (3, explain_s));
                  ("loops", Int explained.loops); ("gaps", Int explained.gaps);
                  ("lints", Int explained.lints);
                ] );
            ( "oracle",
              Obj
                [
                  ("oracle_wall_s", Fixed (3, oracle_s));
                  ("benchmarks", Int (List.length oracle_bench_subset));
                  ("certified", Int (List.length oracle_rows));
                  ("closed", Int oracle_closed);
                  ("unsound", Int oracle_unsound);
                ] );
            ( "serve",
              Obj
                [
                  ("wall_s", Fixed (3, serve_wall));
                  ("requests", Int sc.Serve.accepted); ("ok", Int sc.ok);
                  ("errors", Int sc.errors);
                  ("internal_errors", Int sc.internal_errors);
                  ("serve_req_per_s", Fixed (1, serve_rps));
                  ("serve_p99_ms", Fixed (3, serve_p99));
                ] );
            ( "concsan",
              Obj
                [
                  ("concsan_wall_s", Fixed (3, concsan_s));
                  ("trace_events", Int cs.trace_events);
                  ("trace_threads", Int cs.trace_threads);
                  ("scenarios", Int cs.scenarios);
                  ("executions", Int cs.executions); ("errors", Int cs.errors);
                  ("warnings", Int cs.warnings);
                ] );
          ]))
  in
  Out_channel.with_open_text baseline_path (fun oc ->
      output_string oc (Json.document doc));
  (match par with
  | None ->
      Format.fprintf ppf
        "fig4 wall-clock: %.2fs (jobs=%d degrades to sequential on this \
         1-core host; scaling run skipped)@."
        seq_s n
  | Some (par_s, identical, speedup) ->
      Format.fprintf ppf
        "fig4 wall-clock: %.2fs sequential, %.2fs with %d jobs (speedup \
         %.2fx, outputs %s)@."
        seq_s par_s n speedup
        (if identical then "identical" else "DIFFERENT");
      if speedup < 1.0 then
        Format.fprintf ppf
          "*** WARNING: parallel fig4 is SLOWER than sequential (speedup \
           %.2fx < 1.0) — the domain pool is hurting on this host ***@."
          speedup);
  Format.fprintf ppf
    "fig6+traffic sweep wall-clock: %.2fs sequential on a fresh context@."
    sweep_s;
  (* A batch of 8 cells shares one plan traversal; if it is not even
     beating 8 independent single-cell runs, batching has regressed into
     pure overhead. *)
  (match batched_vs_8_solo with
  | Some ratio ->
      Format.fprintf ppf
        "simulate-batched/ipbc vs 8x simulate/ipbc: %.3fx (< 1.0 means the \
         batch wins)@."
        ratio;
      if ratio > 1.0 then
        Format.fprintf ppf
          "*** WARNING: simulate-batched/ipbc is slower than 8 independent \
           simulate/ipbc runs (ratio %.3f > 1.0) — lockstep batching is pure \
           overhead on this host ***@."
          ratio
  | None -> ());
  Format.fprintf ppf
    "dse sweep wall-clock: %.2fs sequential (%d cells, %.1f cells/s; pruning \
     skipped %d cells, frontier %d)@."
    dse_wall dse_r.E.Dse.grid_cells_total dse_cells_per_s
    dse_r.E.Dse.pruned_cells
    (List.length dse_r.E.Dse.frontier);
  Format.fprintf ppf
    "dse plan-group batching: %d-cell group from cold, %.1f cells/s batched \
     vs %.1f cells/s solo (%.1fx)@."
    dse_group_cells dse_batched_rate dse_solo_rate dse_speedup;
  if dse_speedup < 2.0 then
    Format.fprintf ppf
      "*** WARNING: batched sweep cells are under 2x a solo-cell baseline \
       (%.2fx) — lockstep batching has regressed ***@."
      dse_speedup;
  Format.fprintf ppf
    "analyze wall-clock: %.2fs sequential for the whole suite (%d errors, \
     %d warnings)@."
    analyze_s analyzed.errors analyzed.warnings;
  Format.fprintf ppf
    "explain wall-clock: %.2fs sequential for the whole suite (%d loops, \
     %d II>MII, %d lints)@."
    explain_s explained.loops explained.gaps explained.lints;
  (* explain re-compiles everything analyze compiles but never
     simulates, so it should stay in the same ballpark — far slower
     means the abstract interpretation or the bound tower regressed. *)
  if explain_s > (2.0 *. analyze_s) +. 1.0 then
    Format.fprintf ppf
      "*** WARNING: explain sweep (%.2fs) is far slower than the analyze \
       sweep (%.2fs) — the static analyzers have regressed ***@."
      explain_s analyze_s;
  Format.fprintf ppf
    "oracle wall-clock: %.2fs sequential on %d benchmarks (%d gap loops \
     certified, %d closed, %d soundness violations)@."
    oracle_s
    (List.length oracle_bench_subset)
    (List.length oracle_rows) oracle_closed oracle_unsound;
  Format.fprintf ppf
    "serve: %d mixed requests in %.2fs at jobs=1 (%.0f req/s, p99 handler \
     latency %.2f ms)@."
    sc.accepted serve_wall serve_rps serve_p99;
  Format.fprintf ppf
    "concsan wall-clock: %.2fs (%d trace events over %d threads, %d \
     scenarios / %d interleavings explored, %d errors, %d warnings)@."
    concsan_s cs.trace_events cs.trace_threads cs.scenarios cs.executions
    cs.errors cs.warnings;
  check_regressions ~baseline doc;
  Format.fprintf ppf "wrote %s@.@." baseline_path;
  (* Hard failures.  The serve drive mix is entirely well-formed, so
     anything but "ok" there means the service loop itself regressed. *)
  let failures =
    List.filter_map
      (fun (failed, msg) -> if failed then Some msg else None)
      [
        ( oracle_unsound > 0,
          Printf.sprintf "oracle produced %d unsound certifications"
            oracle_unsound );
        ( sc.errors > 0 || sc.internal_errors > 0 || sc.timeouts > 0
          || sc.shed > 0,
          Printf.sprintf
            "serve bench saw non-ok responses on a well-formed mix \
             (errors=%d internal=%d timeouts=%d shed=%d)"
            sc.errors sc.internal_errors sc.timeouts sc.shed );
        ( cs.errors > 0,
          Printf.sprintf
            "concsan found %d error-severity concurrency diagnostics"
            cs.errors );
        ( (match par with Some (_, same, _) -> not same | None -> false),
          "parallel fig4 output diverged from sequential" );
      ]
  in
  List.iter (fun msg -> Format.fprintf ppf "ERROR: %s@." msg) failures;
  if failures <> [] then exit 1

(* Bechamel micro-benchmarks of the compiler pipeline (engineering
   bench; not a paper artefact), then the trajectory file. *)
(* gsmdec's first loop on the default machine, with its seed-7 profiler
   and a maker of its execution-run layout: the subject of the bechamel
   cells and of sim-smoke. *)
let gsmdec_fixture () =
  let module WL = Vliw_workloads in
  let cfg = Vliw_arch.Config.default in
  let layout run = WL.Layout.create cfg ~aligned:true ~run ~seed:7 in
  ( cfg,
    List.hd (WL.Benchspec.loops (WL.Mediabench.find "gsmdec")),
    WL.Profiling.profiler cfg (layout WL.Layout.Profile_run),
    fun () -> layout WL.Layout.Execution_run )

let interleaved h =
  Vliw_core.Pipeline.Interleaved { heuristic = h; chains = true }

let perf () =
  let open Bechamel in
  let cfg, loop, profiler, exec_layout = gsmdec_fixture () in
  let compile target strategy () =
    ignore (Vliw_core.Pipeline.compile cfg ~target ~strategy ~profiler loop)
  in
  let exec () =
    let c =
      Vliw_core.Pipeline.compile cfg ~target:(interleaved `Ipbc)
        ~strategy:Vliw_core.Unroll_select.Selective ~profiler loop
    in
    let exec_layout = exec_layout () in
    let machine =
      Vliw_sim.Machine.create cfg
        (Vliw_sim.Machine.Word_interleaved { attraction_buffers = true })
    in
    let addr_of =
      Vliw_workloads.Layout.addr_fn exec_layout
        c.Vliw_core.Pipeline.loop.Vliw_ir.Loop.ddg
    in
    ignore (Vliw_sim.Executor.run_loop cfg machine c ~addr_of ())
  in
  (* Simulate-only: compilation and the staged address plan are hoisted
     out of the measured closure, so this cell times the access-plan
     kernel itself (machine creation included — it is part of running a
     loop from cold). *)
  let sim_compiled =
    Vliw_core.Pipeline.compile cfg ~target:(interleaved `Ipbc)
      ~strategy:Vliw_core.Unroll_select.Selective ~profiler loop
  in
  let sim_addr_of =
    Vliw_workloads.Layout.addr_fn (exec_layout ())
      sim_compiled.Vliw_core.Pipeline.loop.Vliw_ir.Loop.ddg
  in
  let simulate () =
    let machine =
      Vliw_sim.Machine.create cfg
        (Vliw_sim.Machine.Word_interleaved { attraction_buffers = true })
    in
    ignore
      (Vliw_sim.Executor.run_loop cfg machine sim_compiled
         ~addr_of:sim_addr_of ())
  in
  (* Lockstep sweep of 8 AB capacities over one plan traversal — the
     batched counterpart of [simulate], sharing its pre-resolved trace
     the way the experiment drivers do through Context. *)
  let sim_trace =
    Vliw_sim.Executor.address_trace sim_compiled ~addr_of:sim_addr_of
  in
  let batched_points =
    List.map
      (fun ab ->
        (Vliw_sim.Machine.Word_interleaved { attraction_buffers = true },
         Some ab))
      [ 2; 4; 8; 16; 32; 64; 128; 256 ]
  in
  let simulate_batched () =
    let machines = Vliw_sim.Machine.create_batch cfg batched_points in
    let cells =
      Array.map
        (fun m -> { Vliw_sim.Executor.machine = m; attractable = None })
        machines
    in
    ignore
      (Vliw_sim.Executor.run_loop_batched cfg cells sim_compiled
         ~addr_trace:sim_trace ())
  in
  let tests =
    Test.make_grouped ~name:"vliw" ~fmt:"%s %s"
      [
        Test.make ~name:"compile/ipbc-selective"
          (Staged.stage (compile (interleaved `Ipbc) Vliw_core.Unroll_select.Selective));
        Test.make ~name:"compile/ibc-ouf"
          (Staged.stage (compile (interleaved `Ibc) Vliw_core.Unroll_select.Ouf_unrolling));
        Test.make ~name:"compile/base-unified"
          (Staged.stage
             (compile (Vliw_core.Pipeline.Unified { slow = true })
                Vliw_core.Unroll_select.Selective));
        Test.make ~name:"compile+simulate/ipbc" (Staged.stage exec);
        Test.make ~name:"simulate/ipbc" (Staged.stage simulate);
        Test.make ~name:"simulate-batched/ipbc" (Staged.stage simulate_batched);
      ]
  in
  let benchmark () =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
    in
    let instances = Toolkit.Instance.[ monotonic_clock ] in
    let cfg_b =
      Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:(Some 10) ()
    in
    let raw = Benchmark.all cfg_b instances tests in
    Analyze.all ols Toolkit.Instance.monotonic_clock raw
  in
  let results = benchmark () in
  let estimates =
    Hashtbl.fold
      (fun name ols acc ->
        match Analyze.OLS.estimates ols with
        | Some (t :: _) -> (name, t) :: acc
        | Some [] | None -> acc)
      results []
  in
  Format.fprintf ppf "bechamel (monotonic clock, ns/run):@.";
  List.iter
    (fun (name, t) -> Format.fprintf ppf "  %-32s %12.0f ns@." name t)
    (List.sort (fun (a, _) (b, _) -> compare a b) estimates);
  Format.fprintf ppf "@.";
  write_bench_json ~estimates

(* ------------------------------------------------------------------ *)

(* One executor run per memory-system backend — no bechamel, just a
   deterministic summary line each.  Wired into the `smoke` alias (and
   thus `dune runtest`), so a regression in any of the kernel's
   specialized inner loops fails the test suite without waiting for the
   full benchmark run. *)
let sim_smoke () =
  let cfg, loop, profiler, exec_layout = gsmdec_fixture () in
  let exec_layout = exec_layout () in
  let run name target arch =
    let c =
      Vliw_core.Pipeline.compile cfg ~target
        ~strategy:Vliw_core.Unroll_select.Selective ~profiler loop
    in
    let machine = Vliw_sim.Machine.create cfg arch in
    let addr_of =
      Vliw_workloads.Layout.addr_fn exec_layout
        c.Vliw_core.Pipeline.loop.Vliw_ir.Loop.ddg
    in
    let stats = Vliw_sim.Executor.run_loop cfg machine c ~addr_of () in
    Format.fprintf ppf "  %-24s accesses=%d stall=%d compute=%d@." name
      (Vliw_sim.Stats.total_accesses stats)
      (Vliw_sim.Stats.stall_cycles stats)
      (Vliw_sim.Stats.compute_cycles stats)
  in
  run "interleaved+AB" (interleaved `Ipbc)
    (Vliw_sim.Machine.Word_interleaved { attraction_buffers = true });
  run "interleaved-AB" (interleaved `Ipbc)
    (Vliw_sim.Machine.Word_interleaved { attraction_buffers = false });
  run "unified/L5"
    (Vliw_core.Pipeline.Unified { slow = true })
    (Vliw_sim.Machine.Unified { slow = true });
  run "multiVLIW" Vliw_core.Pipeline.Multivliw Vliw_sim.Machine.Multivliw

let experiments ctx =
  List.map (fun (name, run) -> (name, fun () -> run ppf ctx)) E.Artefacts.all
  @ [
      ("sim-smoke", sim_smoke);
      ( "serve",
        fun () ->
          let wall, rps, p99, outcome = timed_serve () in
          let c = outcome.Serve.counters in
          Format.fprintf ppf
            "%d mixed requests in %.2fs at jobs=1: %.0f req/s, p99 handler \
             latency %.2f ms (ok=%d errors=%d timeouts=%d internal=%d \
             shed=%d, drained by %s)@."
            c.Serve.accepted wall rps p99
            c.Serve.ok c.Serve.errors
            c.Serve.timeouts
            c.Serve.internal_errors c.Serve.shed
            outcome.Serve.reason );
      ("perf", perf);
    ]

let usage () =
  Format.fprintf ppf
    "usage: main.exe [--jobs N] [EXPERIMENT...]@.  --jobs N   worker \
     domains (default: all cores; 1 = sequential)@.";
  exit 2

let set_jobs s =
  match int_of_string_opt s with
  | Some j when j >= 1 -> Pool.set_default_jobs j
  | _ ->
      Format.fprintf ppf "invalid --jobs value %S (expected integer >= 1)@." s;
      exit 2

(* Split --jobs/-j out of argv; everything else is an experiment name. *)
let rec parse_args names = function
  | [] -> List.rev names
  | ("--jobs" | "-j") :: [] -> usage ()
  | ("--jobs" | "-j") :: n :: rest ->
      set_jobs n;
      parse_args names rest
  | arg :: rest when String.length arg > 7 && String.sub arg 0 7 = "--jobs=" ->
      set_jobs (String.sub arg 7 (String.length arg - 7));
      parse_args names rest
  | ("--help" | "-h") :: _ -> usage ()
  | name :: rest -> parse_args (name :: names) rest

let () =
  let names = parse_args [] (List.tl (Array.to_list Sys.argv)) in
  let ctx = E.Context.create () in
  let all = experiments ctx in
  let requested = match names with [] -> List.map fst all | _ -> names in
  List.iter
    (fun name ->
      match List.assoc_opt name all with
      | Some f ->
          banner name;
          f ()
      | None ->
          Format.fprintf ppf "unknown experiment %S; available: %s@." name
            (String.concat ", " (List.map fst all));
          exit 2)
    requested
