module Config = Vliw_arch.Config
module Ddg = Vliw_ir.Ddg
module Loop = Vliw_ir.Loop
module Pipeline = Vliw_core.Pipeline
module Schedule = Vliw_sched.Schedule
module Machine = Vliw_sim.Machine
module Executor = Vliw_sim.Executor
module Stats = Vliw_sim.Stats
module WL = Vliw_workloads
module Pool = Vliw_parallel.Pool
module D = Diagnostic
module Json = Vliw_report.Json

type summary = {
  benchmarks : int;
  loops : int;
  cells : int;
  errors : int;
  warnings : int;
  infos : int;
}

let ok s = s.errors = 0

(* ------------------------------------------------- per-compile check *)

let compiled_diags cfg (c : Pipeline.compiled) =
  let latency i = c.Pipeline.latencies.(i) in
  let where =
    Printf.sprintf "%s[%s,UF=%d]" c.Pipeline.source.Loop.name
      (Pipeline.target_to_string c.Pipeline.target)
      c.Pipeline.unroll_factor
  in
  Lint_ddg.lint ~latency ~where c.Pipeline.loop.Loop.ddg
  @ Verify_schedule.verify cfg c.Pipeline.loop.Loop.ddg ~latency
      ~allow_cross_cluster_mem:
        (Pipeline.allow_cross_cluster_mem c.Pipeline.target)
      ~where c.Pipeline.schedule

let install_check_hook () =
  Pipeline.check_hook :=
    fun cfg c ->
      let diags = compiled_diags cfg c in
      if D.has_errors diags then
        Format.kasprintf failwith
          "--check: %d invariant violation(s) in the schedule of %s:@.%a"
          (D.n_errors diags) c.Pipeline.source.Loop.name
          (fun ppf ds -> D.pp_report ppf ds)
          diags

(* ------------------------------------------------- benchmark sweeps *)

(* Targets x backends of one benchmark cell matrix: the two interleaved
   heuristics each simulate with and without attraction buffers; the
   unified and multiVLIW targets have one backend each. *)
let target_matrix =
  [
    ( Pipeline.Interleaved { heuristic = `Ipbc; chains = true },
      [ Machine.Word_interleaved { attraction_buffers = true };
        Machine.Word_interleaved { attraction_buffers = false } ] );
    ( Pipeline.Interleaved { heuristic = `Ibc; chains = true },
      [ Machine.Word_interleaved { attraction_buffers = true };
        Machine.Word_interleaved { attraction_buffers = false } ] );
    (Pipeline.Unified { slow = true }, [ Machine.Unified { slow = true } ]);
    (Pipeline.Multivliw, [ Machine.Multivliw ]);
  ]

type bench_result = {
  name : string;
  b_loops : int;
  b_cells : int;
  diags : D.t list;
}

let analyze_bench cfg ~seed (bench : WL.Benchspec.t) =
  let profile_layout =
    WL.Layout.create cfg ~aligned:true ~run:WL.Layout.Profile_run ~seed
  in
  let exec_layout =
    WL.Layout.create cfg ~aligned:true ~run:WL.Layout.Execution_run ~seed
  in
  (* One profile table for the benchmark, shared by every target: a
     profile does not depend on the target. *)
  let profiler =
    WL.Profiling.memoized ~memo:(WL.Profiling.table_memo ()) cfg profile_layout
  in
  let diags = ref [] in
  let loops = ref 0 in
  let cells = ref 0 in
  let emit ds = diags := List.rev_append ds !diags in
  List.iter
    (fun (target, archs) ->
      let compiled =
        List.mapi
          (fun index loop ->
            Pipeline.compile cfg ~target
              ~strategy:Vliw_core.Unroll_select.Selective
              ~profiler:(profiler ~index loop) loop)
          (WL.Benchspec.loops bench)
      in
      (* Static locality bounds, per compiled loop: computed once here,
         cross-checked against the dynamic stats of every interleaved
         backend cell below. *)
      let compiled =
        List.map
          (fun (c : Pipeline.compiled) ->
            let bounds =
              match target with
              | Pipeline.Interleaved _ ->
                  Some (Locality.analyze cfg exec_layout c)
              | Pipeline.Unified _ | Pipeline.Multivliw -> None
            in
            (c, bounds))
          compiled
      in
      List.iter
        (fun ((c : Pipeline.compiled), bounds) ->
          incr loops;
          let where =
            Printf.sprintf "%s/%s[%s]" bench.WL.Benchspec.name
              c.Pipeline.source.Loop.name
              (Pipeline.target_to_string target)
          in
          (* Source DDG under default latencies, compiled (unrolled) DDG
             under the assigned latencies. *)
          emit (Lint_ddg.lint ~where:(where ^ "/src") c.Pipeline.source.Loop.ddg);
          emit
            (Lint_ddg.lint
               ~latency:(fun i -> c.Pipeline.latencies.(i))
               ~where c.Pipeline.loop.Loop.ddg);
          emit
            (Verify_schedule.verify cfg c.Pipeline.loop.Loop.ddg
               ~latency:(fun i -> c.Pipeline.latencies.(i))
               ~allow_cross_cluster_mem:
                 (Pipeline.allow_cross_cluster_mem target)
               ~where c.Pipeline.schedule);
          emit (Audit_sim.audit_addr_plan exec_layout c.Pipeline.loop.Loop.ddg ~where ());
          emit [ Attribution.summary_diag ~report:(Attribution.attribute cfg c) ~where ];
          emit (Attribution.missed_locality cfg exec_layout ~where c);
          Option.iter
            (fun b -> emit [ Locality.summary_diag ~bounds:b ~where ])
            bounds)
        compiled;
      (* Widest element of this target's access stream, in interleaving
         units — the traffic laws are exact only for single-part
         elements (see {!Audit_sim.audit_traffic}). *)
      let max_parts =
        List.fold_left
          (fun acc ((c : Pipeline.compiled), _) ->
            List.fold_left
              (fun acc op ->
                match (Ddg.op c.Pipeline.loop.Loop.ddg op).Vliw_ir.Operation.mem
                with
                | None -> acc
                | Some m ->
                    let g = m.Vliw_ir.Mem_access.granularity in
                    max acc
                      ((g + cfg.Config.interleaving_factor - 1)
                      / cfg.Config.interleaving_factor))
              acc
              (Ddg.memory_ops c.Pipeline.loop.Loop.ddg))
          1 compiled
      in
      List.iter
        (fun arch ->
          incr cells;
          let where =
            Printf.sprintf "%s[%s->%s]" bench.WL.Benchspec.name
              (Pipeline.target_to_string target)
              (Machine.arch_to_string arch)
          in
          let machine = Machine.create cfg arch in
          let agg = Stats.create () in
          List.iter
            (fun ((c : Pipeline.compiled), bounds) ->
              let ddg = c.Pipeline.loop.Loop.ddg in
              let addr_of = WL.Layout.addr_fn exec_layout ddg in
              let stats = Executor.run_loop cfg machine c ~addr_of () in
              let loop_where =
                Printf.sprintf "%s/%s" where c.Pipeline.source.Loop.name
              in
              emit
                (Audit_sim.audit_stats ~arch
                   ~n_mem_ops:(List.length (Ddg.memory_ops ddg))
                   ~trip:c.Pipeline.loop.Loop.trip_count
                   ~ii:c.Pipeline.schedule.Schedule.ii
                   ~stage_count:(Schedule.stage_count c.Pipeline.schedule)
                   ~where:loop_where stats);
              (* The locality conservation law: the dynamic local/remote
                 classification must stay inside the static bounds. *)
              (match (arch, bounds) with
              | Machine.Word_interleaved { attraction_buffers }, Some b ->
                  emit
                    (Locality.check_stats ~attraction_buffers ~bounds:b
                       ~stats ~where:loop_where)
              | _ -> ());
              Stats.accumulate ~into:agg stats)
            compiled;
          emit
            (Audit_sim.audit_traffic ~arch ~stats:agg
               ~traffic:(Machine.traffic_summary machine)
               ~max_parts ~where ()))
        archs)
    target_matrix;
  {
    name = bench.WL.Benchspec.name;
    b_loops = !loops;
    b_cells = !cells;
    diags = List.rev !diags;
  }

let summary_fields s =
  Json.
    [
      ("benchmarks", Int s.benchmarks); ("loops", Int s.loops);
      ("cells", Int s.cells); ("errors", Int s.errors);
      ("warnings", Int s.warnings); ("infos", Int s.infos);
    ]

let print_json ppf ~verbose ~config_diags ~results ~all_diags summary =
  let open Json in
  let diags =
    List.filter (fun d -> verbose || d.D.severity <> D.Info) all_diags
  in
  let bench r =
    Obj
      [
        ("name", String r.name); ("loops", Int r.b_loops);
        ("cells", Int r.b_cells); ("errors", Int (D.n_errors r.diags));
        ("warnings", Int (D.n_warnings r.diags));
        ("infos", Int (D.n_infos r.diags));
      ]
  in
  Format.fprintf ppf "%s%!"
    (document
       (Obj
          [
            ("schema_version", Int Explain.schema_version);
            ("summary", Obj (summary_fields summary @ [ ("ok", Bool (ok summary)) ]));
            ("config_ok", Bool (not (D.has_errors config_diags)));
            ("benchmarks", List (List.map bench results));
            ("diagnostics", List (List.map D.to_json diags));
          ]))

let run_all ?(cfg = Config.default) ?(seed = 7) ?benchmarks
    ?(verbose = false) ?(json = false) ppf =
  let benches =
    match benchmarks with
    | None -> WL.Mediabench.all
    | Some names -> List.map WL.Mediabench.find names
  in
  let config_diags = Check_config.check cfg in
  let results =
    Pool.map_ordered (fun b -> analyze_bench cfg ~seed b) benches
  in
  let all_diags =
    config_diags @ List.concat_map (fun r -> r.diags) results
  in
  let summary =
    {
      benchmarks = List.length results;
      loops = List.fold_left (fun acc r -> acc + r.b_loops) 0 results;
      cells = List.fold_left (fun acc r -> acc + r.b_cells) 0 results;
      errors = D.n_errors all_diags;
      warnings = D.n_warnings all_diags;
      infos = D.n_infos all_diags;
    }
  in
  if json then print_json ppf ~verbose ~config_diags ~results ~all_diags summary
  else begin
    Format.fprintf ppf "config: %s@."
      (if D.has_errors config_diags then "INVALID"
       else if config_diags = [] then "ok"
       else Printf.sprintf "ok (%d warnings)" (D.n_warnings config_diags));
    List.iter
      (fun r ->
        Format.fprintf ppf "%-12s %2d loop compiles  %d cells  %s@." r.name
          r.b_loops r.b_cells
          (if D.has_errors r.diags then
             Printf.sprintf "%d ERRORS" (D.n_errors r.diags)
           else if D.n_warnings r.diags > 0 then
             Printf.sprintf "ok (%d warnings, %d infos)" (D.n_warnings r.diags)
               (D.n_infos r.diags)
           else Printf.sprintf "ok (%d infos)" (D.n_infos r.diags)))
      results;
    D.pp_report ~max_infos:(if verbose then max_int else 0) ppf all_diags;
    Format.fprintf ppf
      "analyze: %d benchmarks, %d loop compiles, %d simulation cells — %d \
       errors, %d warnings, %d infos@."
      summary.benchmarks summary.loops summary.cells summary.errors
      summary.warnings summary.infos;
    if summary.errors = 0 then Format.fprintf ppf "all invariants hold@."
    else begin
      Format.fprintf ppf "diagnostics by pass:@.";
      List.iter
        (fun (pass, n) -> Format.fprintf ppf "  %-24s %d@." pass n)
        (D.by_pass (List.filter (fun d -> d.D.severity = D.Error) all_diags))
    end
  end;
  summary
