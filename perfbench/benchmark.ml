(* The repository benchmark.  One workload per process:

     dune exec -- ./perfbench/benchmark.exe --workload W --seed S
       [--seconds N] [--trace 0|1] [--trace-out FILE] [--smoke] [--spec FILE]

   These are the arguments a benchmark runner passes (README.md, "How it
   is run"); --seconds defaults to run_seconds of BENCHMARK.json.  Sets
   up, runs the timed phase for N seconds at --jobs 1, checks the
   outputs, and prints each metric as "name value unit" followed by one
   JSON result line.  --trace 0 prints the end-to-end metrics of
   BENCHMARK.json; --trace 1 is a separate run with spans on that
   prints the per-layer metrics and writes a Chrome trace (default
   perfbench/out/W-seedS.trace.json).  The metric names and units
   printed must be exactly those BENCHMARK.json (--spec) lists, or the
   run fails.  Exit status: 0 when every check passed, 1 otherwise, 2 on
   a usage error. *)

module E = Vliw_experiments

let workloads =
  [
    ("paper-suite", (Paper_suite.run, []));
    ("dse-sweep", (Dse_sweep.run, Dse_sweep.layer_names));
    ("serve-mixed", (Serve_mixed.run, Serve_mixed.layer_names));
    ("verify", (Verify.run, Verify.layer_names));
  ]

let usage msg =
  Printf.eprintf
    "%s\n\
     usage: benchmark.exe --workload {%s} --seed N [--seconds N] [--trace \
     0|1] [--trace-out FILE] [--smoke] [--spec FILE]\n"
    msg
    (String.concat "|" (List.map fst workloads));
  exit 2

type args = {
  workload : string;
  seed : int;
  seconds : float option;  (** [None]: run_seconds of the spec *)
  trace : bool;
  trace_out : string option;
  smoke : bool;
  spec : string;
}

let parse_args argv =
  let int_arg name v =
    match int_of_string_opt v with
    | Some n -> n
    | None -> usage (Printf.sprintf "%s expects an integer, got %S" name v)
  in
  let rec go a = function
    | [] -> a
    | "--workload" :: w :: rest -> go { a with workload = w } rest
    | "--seed" :: v :: rest -> go { a with seed = int_arg "--seed" v } rest
    | "--seconds" :: v :: rest ->
        let s = int_arg "--seconds" v in
        if s < 1 then usage "--seconds must be at least 1";
        go { a with seconds = Some (float_of_int s) } rest
    | "--trace" :: ("0" | "1" as v) :: rest -> go { a with trace = v = "1" } rest
    | "--trace-out" :: f :: rest -> go { a with trace_out = Some f } rest
    | "--spec" :: f :: rest -> go { a with spec = f } rest
    | "--smoke" :: rest -> go { a with smoke = true } rest
    | arg :: _ -> usage (Printf.sprintf "unexpected argument %S" arg)
  in
  let a =
    go
      {
        workload = "";
        seed = -1;
        seconds = None;
        trace = false;
        trace_out = None;
        smoke = false;
        spec = "BENCHMARK.json";
      }
      argv
  in
  if not (List.mem_assoc a.workload workloads) then
    usage (Printf.sprintf "unknown workload %S" a.workload);
  if a.seed < 0 then usage "--seed N (N >= 0) is required";
  a

let spec_error path msg =
  Printf.eprintf "%s: %s\n" path msg;
  exit 1

(* The fields of BENCHMARK.json. *)
let read_spec path =
  let module P = Vliw_service.Proto in
  let text =
    try In_channel.with_open_text path In_channel.input_all
    with Sys_error e -> spec_error path e
  in
  match P.parse text with
  | Ok (P.Obj fields) -> fields
  | Ok _ -> spec_error path "not a JSON object"
  | Error e -> spec_error path e

(* The (name, unit) pairs the spec lists under [key]. *)
let spec_metrics path fields key =
  let module P = Vliw_service.Proto in
  match List.assoc_opt key fields with
  | Some (P.List items) ->
      List.map
        (function
          | P.Obj m -> (
              match (List.assoc_opt "name" m, List.assoc_opt "unit" m) with
              | Some (P.String n), Some (P.String u) -> (n, u)
              | _ ->
                  spec_error path
                    ("a metric of " ^ key ^ " lacks a name or unit"))
          | _ -> spec_error path (key ^ " must list objects"))
        items
  | _ -> spec_error path ("no list " ^ key)

let spec_run_seconds path fields =
  match List.assoc_opt "run_seconds" fields with
  | Some (Vliw_service.Proto.Int n) when n >= 1 -> float_of_int n
  | _ -> spec_error path "run_seconds must be a whole number of at least 1"

(* Simulated cycles of the modelled machine (IPBC + attraction buffers,
   the paper's headline configuration) summed over the 14 benchmarks at
   seeds S..S+4: what the compiler's output is worth.  One seed's layouts
   move the sum by about 1.5 % from seed to seed; five seeds' by 0.2 %. *)
let sim_seeds = 5

let sim_cycles ~seed =
  let cell =
    E.Context.cell
      (Vliw_sim.Machine.Word_interleaved { attraction_buffers = true })
  in
  let at seed =
    let ctx = E.Context.create ~seed () in
    List.fold_left
      (fun acc bench ->
        match
          E.Context.run_batch ctx bench (E.Context.interleaved `Ipbc) [ cell ]
        with
        | [ (st, _) ] -> acc + Vliw_sim.Stats.total_cycles st
        | _ -> acc)
      0 Vliw_workloads.Mediabench.all
  in
  List.fold_left ( + ) 0 (List.init sim_seeds (fun i -> at (seed + i)))

(* The timed operations' latency and the peak memory are per-layer
   metrics ([op.latency_ms], [gc.peak_heap_mb]): from run to run on a
   host shared with other tenants they move by about as much as a 10 %
   regression bound (README.md, "Baseline").  [setup_s] is
   [Workload.setup_s] over five set-ups spread over the run; for the
   batch workloads a set-up is one whole operation on fresh state. *)
let end_to_end (o : Workload.outcome) ~seed =
  Measure.
    [
      metric "setup_s" "s" (Workload.setup_s o.Workload.setups);
      count "sim_cycles" (sim_cycles ~seed);
    ]

(* Per-layer metrics: the replay's compile and simulator layers, the
   memos, this workload's own layers (other workloads' layers read 0),
   and the trace's own accounting. *)
let per_layer a (o : Workload.outcome) =
  let replay_metrics, replay_checks =
    Compiles.replay ~seed:a.seed o.Workload.caps
  in
  let t0, t1 = o.Workload.window in
  let unattributed = Spans.unattributed ~t0 ~t1 in
  let own = o.Workload.layers in
  let others =
    List.concat_map
      (fun (_, (_, names)) ->
        List.filter_map
          (fun (n, u) ->
            if List.exists (fun m -> m.Measure.name = n) own then None
            else Some (Measure.metric n u 0.0))
          names)
      workloads
  in
  let batch = a.workload <> "serve-mixed" in
  ( replay_metrics @ Workload.memo_metrics o.Workload.memo @ own @ others
    @ Measure.
        [
          metric "op.latency_ms" "ms" (median o.Workload.latencies_ms);
          metric "op.tail_ms" "ms" o.Workload.tail_ms;
          metric "op.throughput" "1/s" o.Workload.throughput;
          metric "gc.peak_heap_mb" "MiB" (peak_heap_mb ());
          metric "trace.unattributed_s" "s" unattributed;
          metric "trace.overhead_s" "s" !Spans.overhead;
          count "trace.spans" (List.length (Spans.all ()));
        ],
    replay_checks
    @
    if batch then
      [
        ( Printf.sprintf
            "timed phase attributed to spans: %.3f s of %.3f s uncovered"
            unattributed (t1 -. t0),
          unattributed <= 0.1 *. (t1 -. t0) );
      ]
    else [] )

let format_value v = Printf.sprintf "%.17g" v

let () =
  let a = parse_args (List.tl (Array.to_list Sys.argv)) in
  let spec = read_spec a.spec in
  let expected =
    spec_metrics a.spec spec (if a.trace then "per_layer" else "end_to_end")
  in
  let seconds =
    match a.seconds with Some s -> s | None -> spec_run_seconds a.spec spec
  in
  Vliw_parallel.Pool.set_default_jobs 1;
  Compiles.install ();
  Spans.enabled := a.trace;
  let run, _ = List.assoc a.workload workloads in
  let env = { Workload.seed = a.seed; seconds; smoke = a.smoke } in
  let o = run env in
  let metrics, traced_checks =
    if a.trace then per_layer a o else (end_to_end o ~seed:a.seed, [])
  in
  let checks =
    o.Workload.checks
    @ Compiles.checks ~seed:a.seed o.Workload.caps
    @ traced_checks
    @ [
        ( Printf.sprintf "%d set-ups cut alike into %d segments"
            (List.length o.Workload.setups)
            (match o.Workload.setups with
            | s :: _ -> List.length s.Workload.segments
            | [] -> 0),
          Workload.cut_alike o.Workload.setups );
      ]
  in
  if a.trace then begin
    let path =
      match a.trace_out with
      | Some p -> p
      | None ->
          Printf.sprintf "perfbench/out/%s-seed%d.trace.json" a.workload a.seed
    in
    Spans.write_chrome path;
    Printf.printf "trace written to %s\n" path
  end;
  List.iter print_endline o.Workload.info;
  (let q = Measure.quantile o.Workload.latencies_ms in
   Printf.printf
     "latency: %d samples, fastest %.3f ms, quartiles %.3f / %.3f / %.3f \
      ms, slowest %.3f ms; set-ups [%s] s, longest segment %.3f s\n"
     (List.length o.Workload.latencies_ms)
     (q 0.0) (q 0.25) (q 0.5) (q 0.75) (q 1.0)
     (String.concat " "
        (List.map
           (fun s -> Printf.sprintf "%.3f" s.Workload.wall)
           o.Workload.setups))
     (List.fold_left
        (fun acc s ->
          List.fold_left
            (fun acc (_, d) -> Float.max acc d)
            acc s.Workload.segments)
        0.0 o.Workload.setups));
  List.iter
    (fun (name, ok) ->
      Printf.printf "check %s: %s\n" (if ok then "ok" else "FAILED") name)
    checks;
  let printed = List.map (fun m -> (m.Measure.name, m.Measure.unit_)) metrics in
  let sort = List.sort compare in
  if sort printed <> sort expected then begin
    Printf.eprintf "metrics printed differ from %s: printed [%s], expected [%s]\n"
      a.spec
      (String.concat "; " (List.map fst printed))
      (String.concat "; " (List.map fst expected));
    exit 1
  end;
  let finite = List.for_all (fun m -> Float.is_finite m.Measure.value) metrics in
  let failed_checks = List.length (List.filter (fun (_, ok) -> not ok) checks) in
  let attempted = o.Workload.attempted + List.length checks in
  let failed = o.Workload.failed + failed_checks in
  let correct = failed = 0 && finite in
  List.iter
    (fun m ->
      Printf.printf "%s %s %s\n" m.Measure.name (format_value m.Measure.value)
        m.Measure.unit_)
    metrics;
  Printf.printf
    {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|}
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun m ->
            Printf.sprintf {|"%s": {"value": %s, "unit": "%s"}|} m.Measure.name
              (if Float.is_finite m.Measure.value then
                 format_value m.Measure.value
               else "-1")
              m.Measure.unit_)
          metrics));
  print_newline ();
  exit (if correct then 0 else 1)
