(* Integration tests: the experiment drivers end-to-end on single
   benchmarks, checking the paper's qualitative claims hold on the
   generated suite. *)

module Access = Vliw_arch.Access
module Config = Vliw_arch.Config
module Pipeline = Vliw_core.Pipeline
module US = Vliw_core.Unroll_select
module Machine = Vliw_sim.Machine
module Stats = Vliw_sim.Stats
module Context = Vliw_experiments.Context
module WL = Vliw_workloads

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool

(* One shared context: compilations are cached across test cases. *)
let ctx = Context.create ()

let no_ab = Machine.Word_interleaved { attraction_buffers = false }
let with_ab = Machine.Word_interleaved { attraction_buffers = true }

let bench name = WL.Mediabench.find name

let test_context_caching () =
  let spec = Context.interleaved `Ipbc in
  let a = Context.compiled ctx (bench "gsmdec") spec in
  let b = Context.compiled ctx (bench "gsmdec") spec in
  check cb "same compilation object" true (a == b)

(* The profile memo: a profile depends on the loop, its unroll factor and
   the cache geometry, so specs of one benchmark and config siblings that
   differ only in buses share the very same profile value, while another
   cache size gets its own — and every profile, shared or not, is the one
   a fresh profile run under its own config produces. *)
let test_profiles_shared () =
  let ctx = Context.create () in
  let b = bench "gsmdec" in
  let cfg = Context.cfg ctx in
  let compile cfg heuristic =
    (cfg, Context.compiled (Context.with_cfg ctx cfg) b (Context.interleaved heuristic))
  in
  let ibc = compile cfg `Ibc and ipbc = compile cfg `Ipbc in
  let buses = compile { cfg with Config.n_reg_buses = 2 } `Ipbc in
  let cache = compile { cfg with Config.cache_size = 2 * cfg.Config.cache_size } `Ipbc in
  let pairs (_, xs) (_, ys) =
    List.filter
      (fun ((x : Pipeline.compiled), (y : Pipeline.compiled)) ->
        x.Pipeline.unroll_factor = y.Pipeline.unroll_factor)
      (List.combine xs ys)
  in
  let shared (x, y) = x.Pipeline.profile == y.Pipeline.profile in
  let same = pairs ibc ipbc in
  check cb "IBC and IPBC agree on some factor" true (same <> []);
  check cb "IBC and IPBC share profiles" true (List.for_all shared same);
  let bus_pairs = pairs ipbc buses in
  check cb "bus sibling agrees on some factor" true (bus_pairs <> []);
  check cb "bus sibling shares profiles" true (List.for_all shared bus_pairs);
  check cb "cache-size sibling profiles its own" true
    (not (List.exists shared (List.combine (snd ipbc) (snd cache))));
  List.iter
    (fun (cfg, cs) ->
      let layout =
        WL.Layout.create cfg ~aligned:true ~run:WL.Layout.Profile_run ~seed:7
      in
      List.iter
        (fun (c : Pipeline.compiled) ->
          check cb
            (c.Pipeline.loop.Vliw_ir.Loop.name ^ " profile is a fresh profile run")
            true
            (c.Pipeline.profile
            = WL.Profiling.profile_loop cfg layout c.Pipeline.loop))
        cs)
    [ ibc; ipbc; buses; cache ]

let test_unrolling_raises_local_hits () =
  List.iter
    (fun name ->
      let lh strategy =
        Stats.local_hit_ratio
          (Context.run ctx (bench name)
             (Context.interleaved ~strategy `Ipbc)
             ~arch:no_ab ())
      in
      check cb
        (name ^ ": OUF raises the local-hit ratio")
        true
        (lh US.Ouf_unrolling > lh US.No_unrolling +. 0.1))
    [ "gsmdec"; "g721dec"; "jpegenc" ]

let test_alignment_raises_local_hits () =
  let lh aligned =
    Stats.local_hit_ratio
      (Context.run ctx (bench "gsmdec")
         (Context.interleaved ~strategy:US.Ouf_unrolling ~aligned `Ipbc)
         ~arch:no_ab ())
  in
  check cb "alignment helps gsmdec" true (lh true > lh false +. 0.1)

let test_chains_cost_local_hits () =
  List.iter
    (fun name ->
      let lh chains =
        Stats.local_hit_ratio
          (Context.run ctx (bench name)
             (Context.interleaved ~chains ~strategy:US.Ouf_unrolling `Ipbc)
             ~arch:no_ab ())
      in
      check cb (name ^ ": chains cost local hits") true
        (lh false > lh true +. 0.05))
    [ "epicdec"; "pgpdec"; "rasta" ]

let test_g721_no_stall () =
  List.iter
    (fun name ->
      let s =
        Context.run ctx (bench name) (Context.interleaved `Ipbc) ~arch:no_ab ()
      in
      check ci (name ^ " is stall-free") 0 (Stats.stall_cycles s))
    [ "g721dec"; "g721enc" ]

let test_ab_reduces_stall () =
  List.iter
    (fun name ->
      let stall arch =
        Stats.stall_cycles
          (Context.run ctx (bench name) (Context.interleaved `Ibc) ~arch ())
      in
      check cb (name ^ ": AB reduces stall") true
        (stall with_ab < stall no_ab))
    [ "epicdec"; "rasta"; "pgpdec"; "gsmdec" ]

let test_remote_hits_dominate_stall () =
  let s =
    Context.run ctx (bench "rasta") (Context.interleaved `Ibc) ~arch:no_ab ()
  in
  let rh = Stats.stall_of s Access.Remote_hit in
  check cb "remote hits are the main stall source" true
    (rh * 2 > Stats.stall_cycles s)

let test_mpeg2dec_doubles_no_stall () =
  (* Double-precision accesses are remote but scheduled with large
     latencies: they generate remote traffic yet no remote-miss stall. *)
  let s =
    Context.run ctx (bench "mpeg2dec") (Context.interleaved `Ipbc)
      ~arch:no_ab ()
  in
  check cb "plenty of remote accesses" true
    (Stats.accesses s Access.Remote_hit + Stats.accesses s Access.Remote_miss
     > 1000);
  check ci "no remote-miss stall" 0 (Stats.stall_of s Access.Remote_miss)

let test_architecture_ordering () =
  (* On the whole-suite AMEAN the paper's ordering is
     Unified(L=1) <= multiVLIW <= interleaved <= Unified(L=5); spot-check
     the two headline inequalities on chain-light benchmarks. *)
  let total spec arch =
    Stats.total_cycles (Context.run ctx (bench "gsmdec") spec ~arch ())
  in
  let ipbc = total (Context.interleaved `Ipbc) with_ab in
  let unified_fast =
    total
      { Context.target = Pipeline.Unified { slow = false };
        strategy = US.Selective; aligned = true }
      (Machine.Unified { slow = false })
  in
  let unified_slow =
    total
      { Context.target = Pipeline.Unified { slow = true };
        strategy = US.Selective; aligned = true }
      (Machine.Unified { slow = true })
  in
  check cb "interleaved beats the 5-cycle unified cache" true
    (ipbc < unified_slow);
  check cb "the 1-cycle unified cache is the upper bound" true
    (unified_fast <= ipbc)

let test_workload_balance_range () =
  List.iter
    (fun b ->
      let wb =
        Context.weighted_balance
          (Context.compiled ctx b (Context.interleaved `Ipbc))
      in
      check cb (b.WL.Benchspec.name ^ " balance in range") true
        (wb >= 0.25 -. 1e-9 && wb <= 1.0 +. 1e-9))
    WL.Mediabench.all

let test_every_benchmark_schedules_validly () =
  List.iter
    (fun b ->
      List.iter
        (fun (c : Pipeline.compiled) ->
          match
            Vliw_sched.Schedule.validate (Context.cfg ctx)
              c.Pipeline.loop.Vliw_ir.Loop.ddg
              ~latency:(fun i -> c.Pipeline.latencies.(i))
              c.Pipeline.schedule
          with
          | Ok () -> ()
          | Error e ->
              Alcotest.fail
                (Printf.sprintf "%s/%s: %s" b.WL.Benchspec.name
                   c.Pipeline.source.Vliw_ir.Loop.name e))
        (Context.compiled ctx b (Context.interleaved `Ibc)))
    WL.Mediabench.all

let test_hints_help_epicdec () =
  match
    Context.run_batch ctx (bench "epicdec") (Context.interleaved `Ipbc)
      [
        Context.cell ~ab_entries:8 ~hints:true with_ab;
        Context.cell ~ab_entries:8 with_ab;
      ]
  with
  | [ (hinted, _); (plain, _) ] ->
      check cb "hints do not hurt with an 8-entry buffer" true
        (Stats.stall_cycles hinted <= Stats.stall_cycles plain)
  | _ -> Alcotest.fail "one result per cell"

(* A cell's full configuration is validated like any machine: an AB
   capacity that is not a whole number of sets is rejected, not
   silently rounded down. *)
let test_batch_rejects_invalid_cell () =
  match
    Context.run_batch ctx (bench "gsmdec") (Context.interleaved `Ipbc)
      [ Context.cell ~ab_entries:3 with_ab ]
  with
  | _ -> Alcotest.fail "an AB capacity of 3 entries was simulated"
  | exception Invalid_argument _ -> ()

(* The executor decodes each address once for a whole batch, so a cell
   whose block size differs from the plan's is rejected — even though
   on its own it is a valid machine. *)
let test_batch_rejects_other_block_size () =
  let wide = { (Context.cfg ctx) with Config.block_size = 64 } in
  check cb "a 64-byte-block machine is valid" true (Config.validate wide = Ok ());
  match
    Context.run_batch ctx (bench "gsmdec") (Context.interleaved `Ipbc)
      [ Context.cell with_ab; Context.cell ~cfg:wide with_ab ]
  with
  | _ -> Alcotest.fail "a cell with another block size was simulated"
  | exception Invalid_argument _ -> ()

(* A cell's knob forwarding against the executable specification:
   the AB-capacity override and the attractable hints must reach the
   simulated machine exactly as a hand-built reference run applies
   them — one fresh machine on the overridden config, kept across every
   loop of the benchmark. *)
let test_run_knobs_match_reference () =
  let b = bench "epicdec" in
  let spec = Context.interleaved `Ipbc in
  let exec_layout =
    WL.Layout.create (Context.cfg ctx) ~aligned:spec.Context.aligned
      ~run:WL.Layout.Execution_run ~seed:7
  in
  List.iter
    (fun ab_entries ->
      List.iter
        (fun hints ->
          let cfg = { (Context.cfg ctx) with Config.ab_entries } in
          let machine = Machine.create cfg with_ab in
          let expected = Stats.create () in
          List.iter
            (fun (c : Pipeline.compiled) ->
              let ddg = c.Pipeline.loop.Vliw_ir.Loop.ddg in
              let attractable =
                if hints then
                  Some
                    (Vliw_core.Hints.attractable cfg ddg
                       ~profile:c.Pipeline.profile
                       ~schedule:c.Pipeline.schedule)
                else None
              in
              Stats.accumulate ~into:expected
                (Vliw_sim.Executor.run_loop_reference cfg machine c
                   ~addr_of:(WL.Layout.addr_fn exec_layout ddg)
                   ?attractable ()))
            (Context.compiled ctx b spec);
          let got =
            fst
              (List.hd
                 (Context.run_batch ctx b spec
                    [ Context.cell ~ab_entries ~hints with_ab ]))
          in
          check cb
            (Printf.sprintf "epicdec AB-%d hints=%b: run = reference" ab_entries
               hints)
            true (Stats.equal got expected))
        [ false; true ])
    [ 8; 16 ]

let test_worked_example_full () =
  let lat = Vliw_experiments.Worked_example.assigned ctx in
  check ci "n1" 4 lat.(Vliw_experiments.Worked_example.n1);
  check ci "n2" 1 lat.(Vliw_experiments.Worked_example.n2);
  check ci "n6" 1 lat.(Vliw_experiments.Worked_example.n6)

let suite =
  [
    ("context: compilation caching", `Quick, test_context_caching);
    ("context: profiles shared across specs and bus siblings", `Quick,
     test_profiles_shared);
    ("claim: unrolling raises local hits", `Slow, test_unrolling_raises_local_hits);
    ("claim: alignment raises local hits", `Slow, test_alignment_raises_local_hits);
    ("claim: chains cost local hits", `Slow, test_chains_cost_local_hits);
    ("claim: g721 has no stall", `Slow, test_g721_no_stall);
    ("claim: attraction buffers reduce stall", `Slow, test_ab_reduces_stall);
    ("claim: remote hits dominate stall", `Slow, test_remote_hits_dominate_stall);
    ("claim: covered doubles do not stall", `Slow, test_mpeg2dec_doubles_no_stall);
    ("claim: architecture ordering", `Slow, test_architecture_ordering);
    ("schedules: balance in range", `Slow, test_workload_balance_range);
    ("schedules: whole suite validates", `Slow, test_every_benchmark_schedules_validly);
    ("ablation: hints help epicdec", `Slow, test_hints_help_epicdec);
    ("context: run forwards AB size and hints like the reference", `Slow,
     test_run_knobs_match_reference);
    ("context: invalid batch cell rejected", `Quick,
     test_batch_rejects_invalid_cell);
    ("context: cell with another block size rejected", `Quick,
     test_batch_rejects_other_block_size);
    ("worked example: final latencies", `Quick, test_worked_example_full);
  ]
