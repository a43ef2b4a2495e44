(* Unit tests for the simulator: statistics bookkeeping, the machine
   dispatch and the lockstep executor's stall model. *)

open Vliw_ir
module Access = Vliw_arch.Access
module Config = Vliw_arch.Config
module Pipeline = Vliw_core.Pipeline
module Profile = Vliw_core.Profile
module Executor = Vliw_sim.Executor
module Machine = Vliw_sim.Machine
module Stats = Vliw_sim.Stats
module Chains = Vliw_core.Chains
module Schedule = Vliw_sched.Schedule

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool
let cfg = Config.default

(* -------------------------------------------------------------- stats *)

let test_stats_counts () =
  let s = Stats.create () in
  Stats.count_access s Access.Local_hit;
  Stats.count_access s Access.Local_hit;
  Stats.count_access s Access.Remote_hit;
  Stats.count_stall s Access.Remote_hit ~cycles:4;
  Stats.add_compute s 100;
  check ci "local hits" 2 (Stats.accesses s Access.Local_hit);
  check ci "total" 3 (Stats.total_accesses s);
  check ci "stall" 4 (Stats.stall_cycles s);
  check ci "total cycles" 104 (Stats.total_cycles s);
  check (Alcotest.float 1e-9) "ratio" (2.0 /. 3.0) (Stats.local_hit_ratio s)

let test_stats_accumulate_scale () =
  let a = Stats.create () and b = Stats.create () in
  Stats.count_access a Access.Local_hit;
  Stats.add_compute a 10;
  Stats.count_access b Access.Remote_miss;
  Stats.count_stall b Access.Remote_miss ~cycles:7;
  Stats.accumulate ~into:a b;
  check ci "merged accesses" 2 (Stats.total_accesses a);
  check ci "merged stall" 7 (Stats.stall_cycles a);
  let half = Stats.scale a 0.5 in
  check ci "scaled compute" 5 (Stats.compute_cycles half);
  check ci "original intact" 10 (Stats.compute_cycles a)

let test_stats_factors () =
  let s = Stats.create () in
  Stats.count_stall_factor s Stats.Granularity;
  Stats.count_stall_factor s Stats.Granularity;
  Stats.count_stall_factor s Stats.Not_in_preferred;
  check ci "granularity" 2 (Stats.factor_count s Stats.Granularity);
  check ci "not preferred" 1 (Stats.factor_count s Stats.Not_in_preferred);
  check ci "unclear untouched" 0 (Stats.factor_count s Stats.Unclear_preferred)

(* ------------------------------------------------------------ machine *)

let test_machine_dispatch () =
  List.iter
    (fun arch ->
      let m = Machine.create cfg arch in
      let r = Access.scratch () in
      Machine.access m r ~attract:true ~now:0 ~cluster:0 ~addr:0 ~store:false;
      check cb
        (Machine.arch_to_string arch ^ " first access misses")
        true
        (r.Access.s_kind = Access.Local_miss
        || r.Access.s_kind = Access.Remote_miss);
      Machine.end_of_loop m)
    [
      Machine.Word_interleaved { attraction_buffers = true };
      Machine.Word_interleaved { attraction_buffers = false };
      Machine.Unified { slow = false };
      Machine.Multivliw;
    ]

(* ----------------------------------------------------------- executor *)

(* Hand-built "compiled" loop: one load in cluster 0 with a controllable
   assigned latency, accessing a fixed address each iteration. *)
let compiled_of ~assigned_latency ~cluster ~granularity ~trip =
  let b = Builder.create () in
  let l =
    Builder.add b ~dests:[ 0 ]
      ~mem:(Mem_access.make ~symbol:"x" ~stride:0 ~granularity ())
      Opcode.Load
  in
  ignore l;
  let g = Builder.build b in
  let loop = Loop.make ~name:"unit" ~trip_count:trip g in
  let profile = Profile.empty ~n_ops:1 in
  profile.(0) <-
    Some
      (Profile.make_op ~hit_rate:1.0
         ~cluster_fractions:[| 1.0; 0.0; 0.0; 0.0 |] ~accesses:trip);
  {
    Pipeline.source = loop;
    target = Pipeline.Interleaved { heuristic = `Ipbc; chains = true };
    unroll_factor = 1;
    loop;
    profile;
    latencies = [| assigned_latency |];
    chains = Chains.build g;
    schedule =
      { Schedule.ii = 4; n_clusters = 4; cluster = [| cluster |];
        start = [| 0 |]; copies = [] };
    estimated_cycles = trip * 4;
    considered = [];
    bus_window_rejections = 0;
  }

(* A solo run carrying compiler attract hints: the one-cell batch. *)
let run_cell cfg machine c ?attractable ?addr_of ?addr_trace () =
  (Executor.run_loop_batched cfg [| { Executor.machine; attractable } |] c
     ?addr_of ?addr_trace ()).(0)

let run ?attractable ~assigned_latency ~cluster ?(granularity = 4) ?(trip = 10)
    ?(arch = Machine.Word_interleaved { attraction_buffers = false })
    ?(addr = 0) () =
  let c = compiled_of ~assigned_latency ~cluster ~granularity ~trip in
  let machine = Machine.create cfg arch in
  run_cell cfg machine c ~addr_of:(fun ~op:_ ~iter:_ -> addr) ?attractable ()

let test_executor_no_stall_when_covered () =
  (* Assigned latency 15 covers even the cold remote miss. *)
  let s = run ~assigned_latency:15 ~cluster:1 () in
  check ci "no stall" 0 (Stats.stall_cycles s);
  check ci "compute = (trip + SC - 1) * II" 40 (Stats.compute_cycles s)

let test_executor_stall_equals_uncovered_latency () =
  (* Local accesses with assigned latency 1: only the cold miss stalls,
     by (miss latency - 1). *)
  let s = run ~assigned_latency:1 ~cluster:0 () in
  check ci "one cold stall" (cfg.Config.lat_local_miss - 1)
    (Stats.stall_cycles s);
  check ci "stall attributed to the miss" (cfg.Config.lat_local_miss - 1)
    (Stats.stall_of s Access.Local_miss)

let test_executor_remote_hit_stall () =
  (* Cluster 1 reads cluster-0 data every iteration at assigned lat 1:
     cold remote miss once, then remote hits stalling 4 each. *)
  let trip = 10 in
  let s = run ~assigned_latency:1 ~cluster:1 ~trip () in
  check ci "remote-hit stall"
    ((trip - 1) * (cfg.Config.lat_remote_hit - 1))
    (Stats.stall_of s Access.Remote_hit);
  check ci "plus the cold miss" (cfg.Config.lat_remote_miss - 1)
    (Stats.stall_of s Access.Remote_miss)

let test_executor_ab_removes_remote_stall () =
  let trip = 10 in
  let s =
    run ~assigned_latency:1 ~cluster:1 ~trip
      ~arch:(Machine.Word_interleaved { attraction_buffers = true })
      ()
  in
  (* Cold miss stalls; the first remote hit attracts; later accesses are
     AB-local. *)
  check ci "a single remote-hit stall remains"
    (cfg.Config.lat_remote_hit - 1)
    (Stats.stall_of s Access.Remote_hit);
  check cb "local hits appear" true (Stats.accesses s Access.Local_hit > 0)

let test_executor_attractable_flags () =
  let trip = 10 in
  let s =
    run ~assigned_latency:1 ~cluster:1 ~trip ~attractable:[| false |]
      ~arch:(Machine.Word_interleaved { attraction_buffers = true })
      ()
  in
  check ci "suppressed attraction keeps remote hits"
    ((trip - 1) * (cfg.Config.lat_remote_hit - 1))
    (Stats.stall_of s Access.Remote_hit)

let test_executor_wide_access () =
  (* 8-byte elements span two clusters: even from its first word's home
     cluster the access classifies by the slower (remote) part. *)
  let s = run ~assigned_latency:15 ~cluster:0 ~granularity:8 () in
  check cb "wide accesses are never plain local hits" true
    (Stats.accesses s Access.Local_hit = 0);
  check cb "remote hits observed" true
    (Stats.accesses s Access.Remote_hit > 0);
  check ci "but fully covered by the latency: no stall" 0
    (Stats.stall_cycles s)

let test_executor_store_never_stalls () =
  let b = Builder.create () in
  let _ =
    Builder.add b ~srcs:[ 0 ]
      ~mem:(Mem_access.make ~symbol:"x" ~stride:0 ~granularity:4 ())
      Opcode.Store
  in
  let g = Builder.build b in
  let loop = Loop.make ~name:"st" ~trip_count:10 g in
  let profile = Profile.empty ~n_ops:1 in
  let c =
    {
      Pipeline.source = loop;
      target = Pipeline.Interleaved { heuristic = `Ipbc; chains = true };
      unroll_factor = 1;
      loop;
      profile;
      latencies = [| 1 |];
      chains = Chains.build g;
      schedule =
        { Schedule.ii = 4; n_clusters = 4; cluster = [| 1 |];
          start = [| 0 |]; copies = [] };
      estimated_cycles = 40;
      considered = [];
      bus_window_rejections = 0;
    }
  in
  let machine =
    Machine.create cfg (Machine.Word_interleaved { attraction_buffers = false })
  in
  let s =
    Executor.run_loop cfg machine c ~addr_of:(fun ~op:_ ~iter:_ -> 0) ()
  in
  check ci "stores never stall" 0 (Stats.stall_cycles s);
  check cb "but are classified" true (Stats.total_accesses s > 0)

let test_run_loop_honours_deadline () =
  (* A solo run is a one-cell batch, so an installed deadline cancels it
     at the kernel's first tick; with no token it runs to completion. *)
  let module Cancel = Vliw_parallel.Cancel in
  let c = compiled_of ~assigned_latency:1 ~cluster:0 ~granularity:4 ~trip:10 in
  let solo () =
    let machine =
      Machine.create cfg (Machine.Word_interleaved { attraction_buffers = false })
    in
    Executor.run_loop cfg machine c ~addr_of:(fun ~op:_ ~iter:_ -> 0) ()
  in
  (match Cancel.with_token (Cancel.create ~budget:0) solo with
  | _ -> Alcotest.fail "run_loop ignored an exhausted deadline"
  | exception Cancel.Cancelled { stage; spent; budget } ->
      check Alcotest.string "stage" "simulate" stage;
      check ci "spent" 1 spent;
      check ci "budget" 0 budget);
  check ci "unbounded run completes" 10 (Stats.total_accesses (solo ()))

let test_executor_factor_classification () =
  (* Stalling remote hits of an op scheduled away from its preferred
     cluster are tagged Not_in_preferred; stride 0 is a multiple of NxI,
     granularity 4 is not wide, distribution 1.0 is clear. *)
  let s = run ~assigned_latency:1 ~cluster:1 ~trip:10 () in
  check cb "not-in-preferred flagged" true
    (Stats.factor_count s Stats.Not_in_preferred > 0);
  check ci "granularity not flagged" 0 (Stats.factor_count s Stats.Granularity);
  check ci "multi-cluster not flagged" 0
    (Stats.factor_count s Stats.More_than_one_cluster);
  check ci "unclear not flagged" 0
    (Stats.factor_count s Stats.Unclear_preferred)

(* ------------------------------------------- golden equivalence suite *)

(* The one kernel, run solo as a one-cell batch (run_loop), against the
   list-based executable specification (run_loop_reference):
   bit-identical Stats and traffic counters on real benchmarks, across
   every memory-system backend, with and without attraction hints. *)

module WL = Vliw_workloads

let golden_archs =
  [
    ( "interleaved+AB",
      Machine.Word_interleaved { attraction_buffers = true },
      Pipeline.Interleaved { heuristic = `Ipbc; chains = true } );
    ( "interleaved-AB",
      Machine.Word_interleaved { attraction_buffers = false },
      Pipeline.Interleaved { heuristic = `Ipbc; chains = true } );
    ( "unified/L5",
      Machine.Unified { slow = true },
      Pipeline.Unified { slow = true } );
    ("multiVLIW", Machine.Multivliw, Pipeline.Multivliw);
  ]

let test_kernel_matches_reference () =
  let traffic = Alcotest.(list (pair string int)) in
  let layout =
    WL.Layout.create cfg ~aligned:true ~run:WL.Layout.Profile_run ~seed:7
  in
  let profiler = WL.Profiling.profiler cfg layout in
  let exec_layout =
    WL.Layout.create cfg ~aligned:true ~run:WL.Layout.Execution_run ~seed:7
  in
  List.iter
    (fun bname ->
      let b = WL.Mediabench.find bname in
      List.iter
        (fun (aname, arch, target) ->
          List.iter
            (fun loop ->
              let c =
                Pipeline.compile cfg ~target
                  ~strategy:Vliw_core.Unroll_select.Selective ~profiler loop
              in
              let addr_of =
                WL.Layout.addr_fn exec_layout c.Pipeline.loop.Loop.ddg
              in
              let attractable =
                match arch with
                | Machine.Word_interleaved { attraction_buffers = true } ->
                    Some
                      (Vliw_core.Hints.attractable cfg c.Pipeline.loop.Loop.ddg
                         ~profile:c.Pipeline.profile
                         ~schedule:c.Pipeline.schedule)
                | _ -> None
              in
              let tag =
                Printf.sprintf "%s/%s/%s" bname aname loop.Loop.name
              in
              let m_new = Machine.create cfg arch in
              let m_ref = Machine.create cfg arch in
              let s_new =
                run_cell cfg m_new c ~addr_of ?attractable ()
              in
              let s_ref =
                Executor.run_loop_reference cfg m_ref c ~addr_of ?attractable
                  ()
              in
              check cb (tag ^ ": stats bit-identical") true
                (Stats.equal s_new s_ref);
              check traffic
                (tag ^ ": traffic counters identical")
                (Machine.traffic_summary m_ref)
                (Machine.traffic_summary m_new);
              (* Both executors' results must also satisfy the simulator
                 conservation laws, not just agree with each other. *)
              let ddg = c.Pipeline.loop.Loop.ddg in
              let max_parts =
                List.fold_left
                  (fun acc op ->
                    match (Ddg.op ddg op).Operation.mem with
                    | None -> acc
                    | Some m ->
                        max acc
                          ((m.Mem_access.granularity
                            + cfg.Config.interleaving_factor - 1)
                          / cfg.Config.interleaving_factor))
                  1 (Ddg.memory_ops ddg)
              in
              let diags =
                Vliw_analysis.Audit_sim.audit_stats ~arch
                  ~n_mem_ops:(List.length (Ddg.memory_ops ddg))
                  ~trip:c.Pipeline.loop.Loop.trip_count
                  ~ii:c.Pipeline.schedule.Schedule.ii
                  ~stage_count:(Schedule.stage_count c.Pipeline.schedule)
                  ~where:tag s_ref
                @ Vliw_analysis.Audit_sim.audit_traffic ~arch ~stats:s_ref
                    ~traffic:(Machine.traffic_summary m_ref)
                    ~max_parts ~where:tag ()
              in
              check ci
                (tag ^ ": sim invariants hold")
                0
                (Vliw_analysis.Diagnostic.n_errors diags))
            (WL.Benchspec.loops b))
        golden_archs)
    [ "gsmdec"; "epicdec"; "mpeg2dec" ]

(* The batched lockstep executor against both the kernel and the
   reference, on one plan per backend target: a batch mixing every
   attraction-buffer capacity fig6/the hints ablation sweep with all
   four backend machines must yield, cell by cell, exactly the Stats
   and traffic of a solo run of that configuration. *)
let batched_cells =
  List.map
    (fun ab ->
      (Printf.sprintf "AB-%d" ab,
       Machine.Word_interleaved { attraction_buffers = true }, Some ab))
    [ 2; 4; 8; 16; 32; 64; 128; 256 ]
  @ [
      ("interleaved+AB", Machine.Word_interleaved { attraction_buffers = true },
       None);
      ("interleaved-AB",
       Machine.Word_interleaved { attraction_buffers = false }, None);
      ("unified/L5", Machine.Unified { slow = true }, None);
      ("multiVLIW", Machine.Multivliw, None);
    ]

let test_batched_matches_reference () =
  let traffic = Alcotest.(list (pair string int)) in
  let layout =
    WL.Layout.create cfg ~aligned:true ~run:WL.Layout.Profile_run ~seed:7
  in
  let profiler = WL.Profiling.profiler cfg layout in
  let exec_layout =
    WL.Layout.create cfg ~aligned:true ~run:WL.Layout.Execution_run ~seed:7
  in
  let b = WL.Mediabench.find "gsmdec" in
  List.iter
    (fun target ->
      List.iter
        (fun loop ->
          let c =
            Pipeline.compile cfg ~target
              ~strategy:Vliw_core.Unroll_select.Selective ~profiler loop
          in
          let addr_of = WL.Layout.addr_fn exec_layout c.Pipeline.loop.Loop.ddg in
          let addr_trace = Executor.address_trace c ~addr_of in
          let cell_cfg ab =
            match ab with
            | None -> cfg
            | Some n -> { cfg with Config.ab_entries = n }
          in
          let attractable_of arch ab =
            match arch with
            | Machine.Word_interleaved { attraction_buffers = true } ->
                Some
                  (Vliw_core.Hints.attractable (cell_cfg ab)
                     c.Pipeline.loop.Loop.ddg ~profile:c.Pipeline.profile
                     ~schedule:c.Pipeline.schedule)
            | _ -> None
          in
          let machines =
            Machine.create_batch cfg
              (List.map (fun (_, arch, ab) -> (arch, ab)) batched_cells)
          in
          let cells =
            Array.of_list
              (List.mapi
                 (fun j (_, arch, ab) ->
                   { Executor.machine = machines.(j);
                     attractable = attractable_of arch ab })
                 batched_cells)
          in
          let batched = Executor.run_loop_batched cfg cells c ~addr_trace () in
          List.iteri
            (fun j (cname, arch, ab) ->
              let tag =
                Printf.sprintf "gsmdec/%s/%s/%s"
                  (Pipeline.target_to_string target)
                  loop.Loop.name cname
              in
              let ccfg = cell_cfg ab in
              let attractable = attractable_of arch ab in
              let m_solo = Machine.create ccfg arch in
              let s_solo =
                run_cell ccfg m_solo c ~addr_trace ?attractable ()
              in
              let m_ref = Machine.create ccfg arch in
              let s_ref =
                Executor.run_loop_reference ccfg m_ref c ~addr_of ?attractable
                  ()
              in
              check cb (tag ^ ": batched = run_loop stats") true
                (Stats.equal batched.(j) s_solo);
              check cb (tag ^ ": batched = reference stats") true
                (Stats.equal batched.(j) s_ref);
              check traffic
                (tag ^ ": batched traffic = run_loop traffic")
                (Machine.traffic_summary m_solo)
                (Machine.traffic_summary machines.(j));
              check traffic
                (tag ^ ": batched traffic = reference traffic")
                (Machine.traffic_summary m_ref)
                (Machine.traffic_summary machines.(j)))
            batched_cells)
        (WL.Benchspec.loops b))
    [
      Pipeline.Interleaved { heuristic = `Ipbc; chains = true };
      Pipeline.Interleaved { heuristic = `Ibc; chains = true };
      Pipeline.Unified { slow = true };
      Pipeline.Multivliw;
    ]

(* The simulator's allocation budget, a deterministic counter: on a
   warm context (compiles and address traces memoized), a 72-cell
   interleaved batch with and without attraction buffers — the
   design-space sweep's cache-size x associativity x AB axes — and a
   four-backend batch must allocate under one minor word per simulated
   cell-access, set-up of machines and per-loop statistics included. *)
let test_batches_allocation_free () =
  let module C = Vliw_experiments.Context in
  let ctx = C.create () in
  let bench = Vliw_workloads.Mediabench.find "gsmdec" in
  let spec = C.interleaved `Ipbc in
  let dse =
    List.concat_map
      (fun cache_size ->
        List.concat_map
          (fun associativity ->
            List.map
              (fun ab ->
                let c = { cfg with Config.cache_size; associativity } in
                let c = if ab > 0 then { c with Config.ab_entries = ab } else c in
                C.cell ~cfg:c
                  (Machine.Word_interleaved { attraction_buffers = ab > 0 }))
              [ 0; 2; 4; 8; 16; 32 ])
          [ 1; 2; 4 ])
      [ 2048; 4096; 8192; 16384 ]
  in
  let backends =
    List.map C.cell
      [
        Machine.Word_interleaved { attraction_buffers = false };
        Machine.Word_interleaved { attraction_buffers = true };
        Machine.Unified { slow = true };
        Machine.Multivliw;
      ]
  in
  check ci "72 sweep cells" 72 (List.length dse);
  List.iter
    (fun cells ->
      ignore (C.run_batch ctx bench spec ~trip_cap:512 cells);
      let before = Gc.minor_words () in
      let results = C.run_batch ctx bench spec ~trip_cap:512 cells in
      let words = Gc.minor_words () -. before in
      let accesses =
        List.fold_left (fun acc (s, _) -> acc + Stats.total_accesses s) 0 results
      in
      let per = words /. float_of_int accesses in
      if not (per < 1.0) then
        Alcotest.failf "%d cells: %.2f minor words per cell-access (%d accesses)"
          (List.length cells) per accesses)
    [ dse; backends ]

(* The batch kernel against the record-spec interleaved cache
   (test/cache_spec.ml) on real access streams.  The kernel-vs-reference
   suites above share the cache model under test; this one does not.
   Each benchmark's compiled loops replay their execution address
   traces through the spec in the kernel's issue order — iteration-major,
   so issue times step back between pipeline stages — with the machine
   kept from loop to loop, and the statistics and traffic must equal
   Context.run_batch's bit for bit.  A 2 KB direct-mapped cache evicts
   blocks while their fills are still in flight. *)
let spec_replay cfg ~with_ab loops =
  let module S = Cache_spec.Interleaved_cache in
  let cache = S.create ~with_ab cfg in
  let total = Stats.create () in
  let r = Access.scratch () and rp = Access.scratch () in
  let i_factor = cfg.Config.interleaving_factor in
  List.iter
    (fun ((c : Pipeline.compiled), trace) ->
      let ddg = c.Pipeline.loop.Loop.ddg and sched = c.Pipeline.schedule in
      let ii = sched.Schedule.ii in
      let ops =
        Array.of_list
          (List.stable_sort
             (fun a b -> compare sched.Schedule.start.(a) sched.Schedule.start.(b))
             (Ddg.memory_ops ddg))
      in
      let n = Array.length ops in
      let trip = c.Pipeline.loop.Loop.trip_count in
      let stats = Stats.create () in
      let stall = ref 0 in
      for iter = 0 to trip - 1 do
        Array.iteri
          (fun k op ->
            let issue = (iter * ii) + sched.Schedule.start.(op) + !stall in
            let o = Ddg.op ddg op in
            let store = Operation.is_store o in
            let parts =
              match o.Operation.mem with
              | Some m -> max 1 ((m.Mem_access.granularity + i_factor - 1) / i_factor)
              | None -> 1
            in
            let part out q =
              S.access cache out ~attract:true ~now:issue
                ~cluster:sched.Schedule.cluster.(op)
                ~addr:(trace.((iter * n) + k) + (q * i_factor))
                ~store
            in
            part r 0;
            for q = 1 to parts - 1 do
              part rp q;
              if rp.Access.s_ready_at >= r.Access.s_ready_at then begin
                r.Access.s_kind <- rp.Access.s_kind;
                r.Access.s_ready_at <- rp.Access.s_ready_at
              end
            done;
            Stats.count_access stats r.Access.s_kind;
            if not store then begin
              let s = r.Access.s_ready_at - (issue + c.Pipeline.latencies.(op)) in
              if s > 0 then begin
                stall := !stall + s;
                Stats.count_stall stats r.Access.s_kind ~cycles:s;
                if r.Access.s_kind = Access.Remote_hit then
                  List.iter (Stats.count_stall_factor stats)
                    (Executor.stall_factors cfg c op)
              end
            end)
          ops
      done;
      Stats.add_compute stats ((trip + Schedule.stage_count sched - 1) * ii);
      S.end_of_loop cache;
      Stats.accumulate ~into:total stats)
    loops;
  (total, Cache_spec.interleaved_summary cache)

let test_kernel_matches_spec_cache () =
  let module C = Vliw_experiments.Context in
  let cfg = { cfg with Config.cache_size = 2048; associativity = 1 } in
  let ctx = C.create ~cfg () in
  let spec = C.interleaved `Ipbc in
  let exec_layout =
    WL.Layout.create cfg ~aligned:spec.C.aligned ~run:WL.Layout.Execution_run
      ~seed:(C.seed ctx)
  in
  List.iter
    (fun bname ->
      let bench = WL.Mediabench.find bname in
      let loops =
        List.map
          (fun (c : Pipeline.compiled) ->
            ( c,
              Executor.address_trace c
                ~addr_of:(WL.Layout.addr_fn exec_layout c.Pipeline.loop.Loop.ddg) ))
          (C.compiled ctx bench spec)
      in
      List.iter
        (fun with_ab ->
          let tag = Printf.sprintf "%s/AB %b" bname with_ab in
          let kernel, traffic =
            List.hd
              (C.run_batch ctx bench spec
                 [ C.cell (Machine.Word_interleaved { attraction_buffers = with_ab }) ])
          in
          let spec_stats, spec_traffic = spec_replay cfg ~with_ab loops in
          check cb (tag ^ ": stats bit-identical") true
            (Stats.equal kernel spec_stats);
          check
            Alcotest.(list (pair string int))
            (tag ^ ": traffic identical") spec_traffic traffic)
        [ false; true ])
    [ "epicenc"; "jpegenc"; "mpeg2dec" ]

let suite =
  [
    ("stats: counters", `Quick, test_stats_counts);
    ("stats: accumulate and scale", `Quick, test_stats_accumulate_scale);
    ("stats: stall factors", `Quick, test_stats_factors);
    ("machine: dispatch over architectures", `Quick, test_machine_dispatch);
    ("executor: covered latency never stalls", `Quick, test_executor_no_stall_when_covered);
    ("executor: stall equals uncovered latency", `Quick, test_executor_stall_equals_uncovered_latency);
    ("executor: remote hits stall", `Quick, test_executor_remote_hit_stall);
    ("executor: attraction buffers remove stall", `Quick, test_executor_ab_removes_remote_stall);
    ("executor: attractable hints respected", `Quick, test_executor_attractable_flags);
    ("executor: wide accesses partly remote", `Quick, test_executor_wide_access);
    ("executor: stores never stall", `Quick, test_executor_store_never_stalls);
    ("executor: figure-5 factor flags", `Quick, test_executor_factor_classification);
    ("executor: solo run honours a deadline", `Quick, test_run_loop_honours_deadline);
    ("executor: kernel matches reference on all backends", `Slow,
     test_kernel_matches_reference);
    ("executor: batched sweep matches kernel and reference", `Slow,
     test_batched_matches_reference);
    ("executor: < 1 minor word per cell-access", `Quick,
     test_batches_allocation_free);
    ("executor: spec cache replays real streams", `Slow,
     test_kernel_matches_spec_cache);
  ]
