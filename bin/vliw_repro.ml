(* vliw-repro: command-line front end for the reproduction.

     vliw-repro list                      benchmarks in the suite
     vliw-repro config                    the simulated machine (Table 2)
     vliw-repro experiment fig8 ...       regenerate figures/tables
     vliw-repro compile gsmdec            schedules of one benchmark
     vliw-repro run gsmdec --arch=...     simulate one benchmark *)

open Cmdliner
module E = Vliw_experiments
module Pool = Vliw_parallel.Pool
module Pipeline = Vliw_core.Pipeline
module Schedule = Vliw_sched.Schedule
module Loop = Vliw_ir.Loop
module WL = Vliw_workloads
module Stats = Vliw_sim.Stats

let ppf = Format.std_formatter

(* ---------------------------------------------------------------- list *)

let list_cmd =
  let doc = "List the benchmarks of the synthetic Mediabench suite." in
  let run () =
    List.iter
      (fun (b : WL.Benchspec.t) ->
        let size, share = WL.Benchspec.dominant_size b in
        Format.fprintf ppf "%-10s %2d loops  %dB data (%.0f%%)  %s@."
          b.WL.Benchspec.name
          (List.length b.WL.Benchspec.kernels)
          size (100.0 *. share) b.WL.Benchspec.description)
      WL.Mediabench.all
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

(* -------------------------------------------------------------- config *)

let config_cmd =
  let doc = "Print the simulated machine configuration (Table 2)." in
  let run () = Format.fprintf ppf "%a@." Vliw_arch.Config.pp Vliw_arch.Config.default in
  Cmd.v (Cmd.info "config" ~doc) Term.(const run $ const ())

(* ---------------------------------------------------------- experiment *)

let jobs_arg =
  Arg.(
    value
    & opt int 0
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for the experiment engine (default: all cores). \
           $(docv) = 1 runs strictly sequentially; the rendered output is \
           byte-identical either way.")

let apply_jobs jobs = if jobs >= 1 then Pool.set_default_jobs jobs

let check_arg =
  Arg.(
    value & flag
    & info [ "check" ]
        ~doc:
          "Run the static analyzer (DDG linter + deep schedule verifier) \
           on every compiled loop; abort with the diagnostic report if any \
           invariant is violated.")

let apply_check check = if check then Vliw_analysis.Analyze.install_check_hook ()

let experiment_cmd =
  let doc = "Regenerate one of the paper's tables or figures." in
  let names =
    let choices = List.map (fun (name, _) -> (name, name)) E.Artefacts.all in
    Arg.(non_empty & pos_all (enum choices) [] & info [] ~docv:"EXPERIMENT")
  in
  let run jobs check names =
    apply_jobs jobs;
    apply_check check;
    let ctx = E.Context.create () in
    List.iter (fun name -> (List.assoc name E.Artefacts.all) ppf ctx) names
  in
  Cmd.v (Cmd.info "experiment" ~doc)
    Term.(const run $ jobs_arg $ check_arg $ names)

(* ------------------------------------------------------ shared options *)

let bench_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"BENCHMARK" ~doc:"Benchmark name (see $(b,list)).")

let heuristic_arg =
  Arg.(
    value
    & opt (enum [ ("ipbc", `Ipbc); ("ibc", `Ibc) ]) `Ipbc
    & info [ "heuristic" ] ~docv:"H" ~doc:"Cluster heuristic: ipbc or ibc.")

let strategy_arg =
  let open Vliw_core.Unroll_select in
  Arg.(
    value
    & opt
        (enum
           [
             ("selective", Selective); ("ouf", Ouf_unrolling);
             ("none", No_unrolling); ("xN", Unroll_times_n);
           ])
        Selective
    & info [ "unroll" ] ~docv:"S"
        ~doc:"Unrolling strategy: selective, ouf, none or xN.")

let find_bench name =
  try Ok (WL.Mediabench.find name)
  with Not_found ->
    Error
      (Printf.sprintf "unknown benchmark %S (try: %s)" name
         (String.concat ", " WL.Mediabench.names))

(* ------------------------------------------------------------- compile *)

let compile_cmd =
  let doc = "Compile a benchmark's loops and print their schedules." in
  let dump_arg =
    Arg.(
      value & flag
      & info [ "dump" ]
          ~doc:"Also print each loop's modulo-scheduled kernel table.")
  in
  let run name heuristic strategy dump check =
    apply_check check;
    match find_bench name with
    | Error e -> prerr_endline e; exit 2
    | Ok bench ->
        let ctx = E.Context.create () in
        let spec = E.Context.interleaved ~strategy heuristic in
        List.iter
          (fun (c : Pipeline.compiled) ->
            Format.fprintf ppf
              "loop %-12s UF=%-2d II=%-3d SC=%d copies=%-3d WB=%.2f \
               maxlive=%-3d est=%d@."
              c.Pipeline.source.Loop.name c.Pipeline.unroll_factor
              c.Pipeline.schedule.Schedule.ii
              (Schedule.stage_count c.Pipeline.schedule)
              (Schedule.n_copies c.Pipeline.schedule)
              (Schedule.workload_balance c.Pipeline.schedule)
              (Vliw_sched.Regpressure.total_max_live c.Pipeline.loop.Loop.ddg
                 ~latency:(fun i -> c.Pipeline.latencies.(i))
                 c.Pipeline.schedule)
              c.Pipeline.estimated_cycles;
            if dump then
              Format.fprintf ppf "%a@."
                (Schedule.pp_kernel c.Pipeline.loop.Loop.ddg)
                c.Pipeline.schedule)
          (E.Context.compiled ctx bench spec)
  in
  Cmd.v
    (Cmd.info "compile" ~doc)
    Term.(
      const run $ bench_arg $ heuristic_arg $ strategy_arg $ dump_arg
      $ check_arg)

(* ----------------------------------------------------------------- run *)

let arch_arg =
  Arg.(
    value
    & opt
        (enum
           [
             ("interleaved", Vliw_sim.Machine.Word_interleaved { attraction_buffers = false });
             ("interleaved+ab", Vliw_sim.Machine.Word_interleaved { attraction_buffers = true });
             ("multivliw", Vliw_sim.Machine.Multivliw);
             ("unified1", Vliw_sim.Machine.Unified { slow = false });
             ("unified5", Vliw_sim.Machine.Unified { slow = true });
           ])
        (Vliw_sim.Machine.Word_interleaved { attraction_buffers = true })
    & info [ "arch" ] ~docv:"ARCH"
        ~doc:
          "Memory system: interleaved, interleaved+ab, multivliw, unified1 \
           or unified5.")

let run_cmd =
  let doc = "Simulate a benchmark and print its execution statistics." in
  let run name heuristic strategy arch check =
    apply_check check;
    match find_bench name with
    | Error e -> prerr_endline e; exit 2
    | Ok bench ->
        let ctx = E.Context.create () in
        let target =
          match arch with
          | Vliw_sim.Machine.Unified { slow } ->
              { E.Context.target = Pipeline.Unified { slow };
                strategy; aligned = true }
          | Vliw_sim.Machine.Multivliw ->
              { E.Context.target = Pipeline.Multivliw; strategy;
                aligned = true }
          | Vliw_sim.Machine.Word_interleaved _ ->
              E.Context.interleaved ~strategy heuristic
        in
        let stats = E.Context.run ctx bench target ~arch () in
        Format.fprintf ppf "%s on %s:@.%a@.local-hit ratio: %.3f@."
          bench.WL.Benchspec.name
          (Vliw_sim.Machine.arch_to_string arch)
          Stats.pp stats (Stats.local_hit_ratio stats)
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      const run $ bench_arg $ heuristic_arg $ strategy_arg $ arch_arg
      $ check_arg)

(* ------------------------------------------------------------- analyze *)

let benches_arg ~what =
  Arg.(
    value & pos_all string []
    & info [] ~docv:"BENCHMARK"
        ~doc:
          (Printf.sprintf "Benchmarks to %s (default: the whole suite)."
             what))

let json_arg =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:
          "Emit one machine-readable JSON document instead of the \
           human-readable report.")

let validate_benches names =
  let names = if names = [] then None else Some names in
  (match names with
  | None -> ()
  | Some ns -> (
      match List.filter (fun n -> Result.is_error (find_bench n)) ns with
      | [] -> ()
      | bad :: _ ->
          (match find_bench bad with
          | Error e -> prerr_endline e
          | Ok _ -> ());
          exit 2));
  names

let analyze_cmd =
  let doc =
    "Run every static-analysis pass — config validator, DDG linter, deep \
     schedule verifier, address-plan cross-check, sim-invariant auditor \
     and the static-locality conservation law — over the whole suite \
     (all backends, both heuristics). Exits non-zero if any invariant is \
     violated."
  in
  let verbose_arg =
    Arg.(
      value & flag
      & info [ "verbose"; "v" ]
          ~doc:"Also print info-severity diagnostics.")
  in
  let concurrency_arg =
    Arg.(
      value & flag
      & info [ "concurrency" ]
          ~doc:
            "Run the concurrency sanitizer instead of the artefact \
             passes: record the pool, the single-flight memos and a \
             scripted serve session through the sync shim, analyze the \
             traces for races / lock-order cycles / condition lints, \
             and explore the closed scenarios under the DPOR \
             interleaving explorer.")
  in
  let mutations_arg =
    Arg.(
      value & flag
      & info [ "mutations" ]
          ~doc:
            "With $(b,--concurrency): run the known-bad mutant suite \
             instead of the clean run and fail unless every mutant is \
             caught by its expected pass id.")
  in
  let seed_arg =
    Arg.(
      value
      & opt int64 Vliw_concsan.Concsan.default_seed
      & info [ "seed" ]
          ~docv:"SEED"
          ~doc:
            "Seed for the interleaving explorer's schedule shuffles \
             (with $(b,--concurrency)); a fixed seed makes the scenario \
             section byte-identical across runs and $(b,--jobs) \
             settings.")
  in
  let run jobs verbose json concurrency mutations seed names =
    apply_jobs jobs;
    if concurrency then
      if mutations then begin
        if not (Vliw_concsan.Concsan.run_mutations ~seed ppf) then exit 1
      end
      else begin
        let summary = Vliw_concsan.Concsan.run ~seed ~json ppf in
        if summary.Vliw_concsan.Concsan.errors > 0 then exit 1
      end
    else begin
      let names = validate_benches names in
      let summary =
        Vliw_analysis.Analyze.run_all ?benchmarks:names ~verbose ~json ppf
      in
      if not (Vliw_analysis.Analyze.ok summary) then exit 1
    end
  in
  Cmd.v (Cmd.info "analyze" ~doc)
    Term.(
      const run $ jobs_arg $ verbose_arg $ json_arg $ concurrency_arg
      $ mutations_arg $ seed_arg
      $ benches_arg ~what:"analyze")

(* ------------------------------------------------------------- explain *)

let explain_cmd =
  let doc =
    "Explain every compiled schedule: achieved II against recurrence / \
     resource / copy / bus lower bounds with a ranked cycle-loss budget, \
     provable cluster-locality verdicts from the congruence analysis, \
     the unroll candidates weighed by the selective search, and \
     missed-locality lints."
  in
  let oracle_arg =
    Arg.(
      value & flag
      & info [ "oracle" ]
          ~doc:
            "Also certify every loop whose achieved II exceeds its MII \
             through the exact CP modulo-scheduling oracle and print the \
             optimality leaderboard (heuristic II / proven optimal II / \
             verdict). Every SAT witness is re-checked by the deep \
             schedule verifier; exits non-zero on a soundness violation.")
  in
  let oracle_budget_arg =
    Arg.(
      value
      & opt int Vliw_analysis.Oracle.default_budget
      & info [ "oracle-budget" ] ~docv:"N"
          ~doc:
            "Per-II probe budget for the oracle, counted in solver \
             decisions and conflicts (never wall-clock, so results are \
             identical across hosts and $(b,--jobs) settings). Implies \
             $(b,--oracle). Default: 300000.")
  in
  let csv_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"PATH"
          ~doc:
            "Also write the oracle leaderboard as CSV to $(docv) \
             (requires $(b,--oracle)).")
  in
  let run jobs json oracle oracle_budget csv names =
    apply_jobs jobs;
    let names = validate_benches names in
    let oracle =
      oracle || oracle_budget <> Vliw_analysis.Oracle.default_budget
      || csv <> None
    in
    let summary =
      Vliw_analysis.Explain.run_all ~ctx:(E.Context.create ())
        ?benchmarks:names ~json
        ?oracle_budget:(if oracle then Some oracle_budget else None)
        ppf
    in
    let rows = summary.Vliw_analysis.Explain.leaderboard in
    (match csv with
    | Some path when oracle ->
        let p = E.Csv_export.leaderboard ~path rows in
        if not json then Format.fprintf ppf "wrote %s@." p
    | _ -> ());
    if
      List.exists
        (fun (r : Vliw_analysis.Explain.oracle_row) ->
          not (Vliw_analysis.Oracle.sound r.Vliw_analysis.Explain.o_cert))
        rows
    then exit 1
  in
  Cmd.v (Cmd.info "explain" ~doc)
    Term.(
      const run $ jobs_arg $ json_arg $ oracle_arg $ oracle_budget_arg
      $ csv_arg $ benches_arg ~what:"explain")

(* --------------------------------------------------------------- sweep *)

let sweep_cmd =
  let doc =
    "Design-space exploration: sweep a grid of machine configurations \
     (clusters x interleaving x register buses x cache geometry x \
     attraction-buffer capacity), compile each schedule-relevant config \
     once through the shared memo, simulate each plan group's cells as \
     one lockstep batch, prune provably-dominated bus levels, and print \
     the Pareto frontier of cycles vs inter-cluster traffic vs hardware \
     cost."
  in
  let smoke_arg =
    Arg.(
      value & flag
      & info [ "smoke" ]
          ~doc:
            "Use the reduced seconds-scale grid (the runtest/CI \
             configuration) instead of the full >= 1000-cell grid.")
  in
  let no_prune_arg =
    Arg.(
      value & flag
      & info [ "no-prune" ]
          ~doc:
            "Exhaustive sweep: simulate every bus level even when a lower \
             level compiled without a single bus-window rejection (the \
             condition under which higher levels are provably dominated).")
  in
  let trip_cap_arg =
    Arg.(
      value
      & opt int 512
      & info [ "trip-cap" ] ~docv:"N"
          ~doc:
            "Source iterations simulated per loop (0 = all).  Every cell \
             of a plan group is cut identically, so relative comparisons \
             stand; the default keeps the full grid in seconds-to-minutes \
             territory.")
  in
  let csv_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"DIR"
          ~doc:"Also write the frontier as $(docv)/dse-pareto-frontier.csv.")
  in
  let run jobs json smoke no_prune trip_cap csv names =
    apply_jobs jobs;
    let names = validate_benches names in
    let benches =
      Option.map (List.map WL.Mediabench.find) names
    in
    let grid =
      if smoke then E.Dse.smoke_grid else E.Dse.default_grid
    in
    let ctx = E.Context.create () in
    let t0 = Unix.gettimeofday () in
    let result =
      E.Dse.sweep ~grid ?benches ~prune:(not no_prune) ~trip_cap ctx
    in
    let wall_s = Unix.gettimeofday () -. t0 in
    (* Throughput over the whole grid: pruned cells count — covering
       them without simulating them is the point of the pruning rule. *)
    let cells_per_s =
      if wall_s > 0.0 then float_of_int result.E.Dse.grid_cells_total /. wall_s
      else 0.0
    in
    (match csv with
    | None -> ()
    | Some dir ->
        let path = E.Csv_export.frontier ~dir result in
        if not json then Format.fprintf ppf "wrote %s@." path);
    if json then
      E.Dse.pp_json ppf ~wall_s ~cells_per_s
        ~memo:(E.Context.memo_stats ctx) result
    else begin
      E.Dse.pp_human ppf result;
      (* Counters and wall-clock go to stderr: stdout stays byte-identical
         at any --jobs (memo hit/miss splits and timing are
         scheduling-dependent; the report above is not). *)
      let eppf = Format.err_formatter in
      let stats = E.Context.memo_stats ctx in
      List.iter
        (fun (name, (s : Vliw_parallel.Memo.stats)) ->
          Format.fprintf eppf
            "memo %-9s %d resident, %d hits / %d misses, %d evictions@."
            name s.Vliw_parallel.Memo.size s.Vliw_parallel.Memo.hits
            s.Vliw_parallel.Memo.misses s.Vliw_parallel.Memo.evictions)
        stats;
      Format.fprintf eppf "%.1f cells/s (%d cells in %.2fs)@."
        cells_per_s result.E.Dse.grid_cells_total wall_s
    end
  in
  Cmd.v (Cmd.info "sweep" ~doc)
    Term.(
      const run $ jobs_arg $ json_arg $ smoke_arg $ no_prune_arg
      $ trip_cap_arg $ csv_arg $ benches_arg ~what:"sweep")

(* ----------------------------------------------------------------- dot *)

let dot_cmd =
  let doc =
    "Emit a Graphviz rendering of one compiled loop's DDG, nodes coloured \
     by assigned cluster."
  in
  let loop_arg =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"LOOP" ~doc:"Loop name (see $(b,compile)).")
  in
  let run name loop_name heuristic strategy =
    match find_bench name with
    | Error e -> prerr_endline e; exit 2
    | Ok bench -> (
        let ctx = E.Context.create () in
        let spec = E.Context.interleaved ~strategy heuristic in
        match
          List.find_opt
            (fun (c : Pipeline.compiled) ->
              c.Pipeline.source.Loop.name = loop_name)
            (E.Context.compiled ctx bench spec)
        with
        | None ->
            Printf.eprintf "no loop %S in %s\n" loop_name name;
            exit 2
        | Some c ->
            Vliw_ir.Dot.scheduled ppf c.Pipeline.loop.Loop.ddg
              ~cluster:(fun v -> c.Pipeline.schedule.Schedule.cluster.(v)))
  in
  Cmd.v (Cmd.info "dot" ~doc)
    Term.(const run $ bench_arg $ loop_arg $ heuristic_arg $ strategy_arg)

(* --------------------------------------------------------------- serve *)

let serve_cmd =
  let doc =
    "Run the resident compile service: a long-lived loop reading \
     newline-delimited JSON requests (compile / simulate / analyze / \
     explain / oracle / sweep-cell / health / drain) and writing one JSON \
     response line per request, sharing one compile/trace/oracle memo \
     context across the whole session. Robust by contract: malformed \
     input gets structured errors, deadlines are deterministic work-unit \
     budgets, worker crashes are isolated, the dispatch queue sheds under \
     overload, and SIGINT drains gracefully."
  in
  let socket_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:
            "Listen on a Unix-domain socket instead of stdin/stdout; each \
             accepted connection is served as one session (sequentially), \
             sharing the memo context across sessions.")
  in
  let serve_jobs_arg =
    Arg.(
      value
      & opt int 1
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Worker domains serving requests concurrently (default 1: \
             handle requests inline). Responses are emitted in request \
             order at any setting.")
  in
  let queue_arg =
    Arg.(
      value
      & opt int 128
      & info [ "queue" ] ~docv:"N"
          ~doc:
            "Dispatch-queue bound when $(b,--jobs) > 1; requests beyond it \
             are shed with an \"overloaded\" response.")
  in
  let chaos_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "chaos" ] ~docv:"SEED"
          ~doc:
            "Deterministic fault injection: corrupt/crash/exhaust/shed a \
             seeded ~1/3 of requests to prove every failure path yields a \
             structured response. Same seed, same faults, every host.")
  in
  let times_arg =
    Arg.(
      value & flag
      & info [ "times" ]
          ~doc:
            "Add wall-clock \"ms\" fields to responses and the queue \
             high-watermark to the drained line (off by default: \
             wall-clock breaks replay byte-identity).")
  in
  let deadline_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "deadline" ] ~docv:"UNITS"
          ~doc:
            "Default per-request deadline in deterministic work units for \
             requests that carry no \"deadline\" field (default: \
             effectively unbounded).")
  in
  let run socket jobs queue chaos times deadline =
    let drain_flag = Atomic.make false in
    Sys.set_signal Sys.sigint
      (Sys.Signal_handle (fun _ -> Atomic.set drain_flag true));
    let ctx = E.Context.create () in
    let session ~input ~output =
      Vliw_service.Serve.run ~jobs ~queue_cap:queue ?chaos ~wall_times:times
        ?default_deadline:deadline ~drain_flag ~ctx ~input ~output ()
    in
    match socket with
    | None ->
        let outcome = session ~input:Unix.stdin ~output:stdout in
        Printf.eprintf "serve: drained (%s), %d requests\n%!"
          outcome.Vliw_service.Serve.reason
          outcome.Vliw_service.Serve.counters.Vliw_service.Serve.accepted
    | Some path ->
        (try Unix.unlink path with Unix.Unix_error _ -> ());
        let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.bind sock (Unix.ADDR_UNIX path);
        Unix.listen sock 8;
        Printf.eprintf "serve: listening on %s\n%!" path;
        let rec accept_loop () =
          if Atomic.get drain_flag then ()
          else begin
            (* Poll the listener so SIGINT is honoured while idle. *)
            match Unix.select [ sock ] [] [] 0.5 with
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
            | [], _, _ -> accept_loop ()
            | _ -> (
                match Unix.accept sock with
                | exception Unix.Unix_error (Unix.EINTR, _, _) ->
                    accept_loop ()
                | fd, _ ->
                    let output = Unix.out_channel_of_descr fd in
                    let outcome = session ~input:fd ~output in
                    Printf.eprintf "serve: session drained (%s), %d requests\n%!"
                      outcome.Vliw_service.Serve.reason
                      outcome.Vliw_service.Serve.counters
                        .Vliw_service.Serve.accepted;
                    (try close_out output with Sys_error _ -> ());
                    accept_loop ())
          end
        in
        accept_loop ();
        (try Unix.close sock with Unix.Unix_error _ -> ());
        (try Unix.unlink path with Unix.Unix_error _ -> ())
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const run $ socket_arg $ serve_jobs_arg $ queue_arg $ chaos_arg
      $ times_arg $ deadline_arg)

(* ---------------------------------------------------------------- main *)

let () =
  let doc =
    "Reproduction of 'Effective Instruction Scheduling Techniques for an \
     Interleaved Cache Clustered VLIW Processor' (MICRO-35, 2002)."
  in
  let info = Cmd.info "vliw-repro" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            list_cmd; config_cmd; experiment_cmd; compile_cmd; run_cmd;
            analyze_cmd; explain_cmd; sweep_cmd; serve_cmd; dot_cmd;
          ]))
