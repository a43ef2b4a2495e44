(* Properties and unit tests for the congruence-lattice locality
   analysis and the II-bound attribution: lattice laws (join, widening,
   step closure), soundness of the abstract transfer function against
   brute-force address enumeration, the conservation-law checker's pass
   ids, the attribution budget identity, and the missed-locality lint. *)

open Vliw_ir
module A = Vliw_analysis
module D = Vliw_analysis.Diagnostic
module Locality = Vliw_analysis.Locality
module Lattice = Vliw_analysis.Locality.Lattice
module Attribution = Vliw_analysis.Attribution
module Explain = Vliw_analysis.Explain
module Config = Vliw_arch.Config
module Access = Vliw_arch.Access
module Chains = Vliw_core.Chains
module Pipeline = Vliw_core.Pipeline
module Profile = Vliw_core.Profile
module Schedule = Vliw_sched.Schedule
module Stats = Vliw_sim.Stats
module WL = Vliw_workloads

let check = Alcotest.check
let cb = Alcotest.bool
let ci = Alcotest.int
let cfg = Config.default
let modulus = Locality.locality_modulus cfg

let make_test ~name prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:100 ~name
       QCheck.(make Gen.(int_bound 1_000_000))
       prop)

let with_rng f seed =
  let rng = Random.State.make [| seed |] in
  f (fun bound -> QCheck.Gen.generate1 ~rand:rng (QCheck.Gen.int_bound bound))

let random_lattice gi =
  let t = ref (Lattice.bot ~modulus) in
  for _ = 0 to gi modulus do
    t := Lattice.join !t (Lattice.of_residue ~modulus (gi (modulus - 1)))
  done;
  !t

(* ------------------------------------------------------- lattice laws *)

let prop_join_commutative =
  make_test ~name:"lattice: join is commutative"
    (with_rng (fun gi ->
         let a = random_lattice gi and b = random_lattice gi in
         Lattice.equal (Lattice.join a b) (Lattice.join b a)))

let prop_join_associative =
  make_test ~name:"lattice: join is associative"
    (with_rng (fun gi ->
         let a = random_lattice gi
         and b = random_lattice gi
         and c = random_lattice gi in
         Lattice.equal
           (Lattice.join a (Lattice.join b c))
           (Lattice.join (Lattice.join a b) c)))

let prop_join_idempotent_and_bounds =
  make_test ~name:"lattice: join is idempotent and an upper bound"
    (with_rng (fun gi ->
         let a = random_lattice gi and b = random_lattice gi in
         Lattice.equal (Lattice.join a a) a
         && Lattice.leq a (Lattice.join a b)
         && Lattice.leq b (Lattice.join a b)))

let prop_widen_monotone =
  make_test ~name:"lattice: widening covers both arguments and is monotone"
    (with_rng (fun gi ->
         let a = random_lattice gi and b = random_lattice gi in
         let a' = Lattice.join a (random_lattice gi) in
         Lattice.leq a (Lattice.widen a b)
         && Lattice.leq b (Lattice.widen a b)
         && Lattice.leq (Lattice.widen a b) (Lattice.widen a' b)))

let prop_step_closure_closed =
  make_test ~name:"lattice: step closure contains every +k*step residue"
    (with_rng (fun gi ->
         let t = random_lattice gi in
         let step = gi 40 - 20 in
         let c = Lattice.step_closure t step in
         Lattice.leq t c
         && Lattice.equal (Lattice.step_closure c step) c
         && List.for_all
              (fun r ->
                List.for_all
                  (fun k -> Lattice.mem c (r + (k * step)))
                  [ 1; 2; 3; 7 ])
              (Lattice.residues t)))

(* --------------------------------------------------- transfer soundness *)

let random_descriptor gi =
  let storage =
    match gi 2 with
    | 0 -> Mem_access.Global
    | 1 -> Mem_access.Stack
    | _ -> Mem_access.Heap
  in
  Mem_access.make ~storage
    ~offset:(gi 63)
    ~indirect:(gi 3 = 0)
    ~footprint:[| 0; 48; 64; 96; 128; 2048 |].(gi 5)
    ~symbol:(Printf.sprintf "s%d" (gi 5))
    ~stride:(gi 64 - 32)
    ~granularity:[| 1; 2; 4; 8 |].(gi 3)
    ()

let prop_transfer_sound =
  make_test
    ~name:"op_stream contains every address the layout generates (mod M)"
    (with_rng (fun gi ->
         let m = random_descriptor gi in
         let layout =
           WL.Layout.create cfg
             ~aligned:(gi 1 = 0)
             ~run:(if gi 1 = 0 then WL.Layout.Profile_run else WL.Layout.Execution_run)
             ~seed:(gi 1000)
         in
         let stream = Locality.op_stream cfg layout m in
         let ok = ref true in
         for iter = 0 to 300 do
           let addr = WL.Layout.address layout m ~op:0 ~iter in
           if not (Lattice.mem stream addr) then ok := false
         done;
         !ok))

let test_classify_singleton () =
  let base = 4 * 5 in
  (* residue 20 mod 16 = 4 -> cluster 1 *)
  let stream = Lattice.of_residue ~modulus base in
  let home = Config.home_of (Config.decoder cfg) base in
  check cb "assigned = home is Local" true
    (Locality.classify cfg ~assigned:home ~parts:1 stream = Locality.Local);
  check cb "assigned <> home is Remote" true
    (Locality.classify cfg
       ~assigned:((home + 1) mod cfg.Config.n_clusters)
       ~parts:1 stream
    = Locality.Remote);
  (* A two-part element reaches the next cluster too: local nowhere. *)
  check cb "wide element is Mixed for its home" true
    (Locality.classify cfg ~assigned:home ~parts:2 stream = Locality.Mixed)

let test_step_closure_gcd_wrap () =
  (* Stride 6 wrapping in a 16-byte footprint reaches every multiple of
     gcd(6,16) = 2 — the closure must be exactly the even residues. *)
  let stream = Lattice.step_closure (Lattice.of_residue ~modulus 0) 2 in
  check ci "8 residues" 8 (Lattice.cardinal stream);
  check cb "even residues in" true (Lattice.mem stream 6);
  check cb "odd residues out" false (Lattice.mem stream 7)

(* ------------------------------------------- conservation-law checker *)

let fake_bounds ~trip ~n_local ~n_remote ~n_mixed =
  {
    Locality.verdicts = [];
    trip;
    n_local;
    n_remote;
    n_mixed;
    trip_local = trip * n_local;
    trip_remote = trip * n_remote;
    trip_total = trip * (n_local + n_remote + n_mixed);
  }

let stats_of counts =
  let s = Stats.create () in
  List.iter
    (fun (kind, n) ->
      for _ = 1 to n do
        Stats.count_access s kind
      done)
    counts;
  s

let has severity pass diags =
  List.exists (fun d -> d.D.pass = pass && d.D.severity = severity) diags

let test_check_stats_clean () =
  let bounds = fake_bounds ~trip:10 ~n_local:2 ~n_remote:1 ~n_mixed:1 in
  let stats =
    stats_of
      [ (Access.Local_hit, 20); (Access.Remote_hit, 10);
        (Access.Local_miss, 5); (Access.Remote_miss, 5) ]
  in
  List.iter
    (fun attraction_buffers ->
      check ci "no diagnostics" 0
        (List.length
           (Locality.check_stats ~attraction_buffers ~bounds ~stats
              ~where:"t")))
    [ false; true ]

let test_check_stats_remote_bound () =
  (* 2 provably-local ops x 10 iterations, but 25 remote classifications:
     at most (4 - 2) x 10 = 20 could legally be remote. *)
  let bounds = fake_bounds ~trip:10 ~n_local:2 ~n_remote:1 ~n_mixed:1 in
  let stats =
    stats_of [ (Access.Remote_hit, 25); (Access.Local_hit, 15) ]
  in
  check cb "remote-bound violated" true
    (has D.Error "locality/remote-bound"
       (Locality.check_stats ~attraction_buffers:false ~bounds ~stats
          ~where:"t"))

let test_check_stats_local_bound_ab () =
  (* With attraction buffers a remote word may classify Local_hit, so
     only local *misses* are bounded; without them the same stats must
     be flagged. *)
  let bounds = fake_bounds ~trip:10 ~n_local:0 ~n_remote:4 ~n_mixed:0 in
  let stats = stats_of [ (Access.Local_hit, 40) ] in
  check cb "AB tolerates attracted local hits" false
    (has D.Error "locality/local-bound"
       (Locality.check_stats ~attraction_buffers:true ~bounds ~stats
          ~where:"t"));
  check cb "no-AB flags them" true
    (has D.Error "locality/local-bound"
       (Locality.check_stats ~attraction_buffers:false ~bounds ~stats
          ~where:"t"))

let test_check_stats_floors () =
  let bounds = fake_bounds ~trip:10 ~n_local:2 ~n_remote:2 ~n_mixed:0 in
  let stats =
    stats_of [ (Access.Local_hit, 5); (Access.Remote_hit, 35) ]
  in
  check cb "local-floor violated" true
    (has D.Error "locality/local-floor"
       (Locality.check_stats ~attraction_buffers:false ~bounds ~stats
          ~where:"t"));
  let stats = stats_of [ (Access.Local_hit, 35); (Access.Remote_hit, 5) ] in
  check cb "remote-floor violated" true
    (has D.Error "locality/remote-floor"
       (Locality.check_stats ~attraction_buffers:false ~bounds ~stats
          ~where:"t"))

(* --------------------------------------------------------- attribution *)

let test_attribution_budget_identity () =
  (* Over real compiled loops: II >= MII >= floor MII, every bound is at
     most the achieved II, and the ranked budget sums exactly to
     II - floor MII. *)
  let ctx = A.Context.create () in
  List.iter
    (fun bench_name ->
      let bench = WL.Mediabench.find bench_name in
      List.iter
        (fun (r : Explain.loop_report) ->
          let a = r.Explain.attribution in
          let where = r.Explain.bench ^ "/" ^ r.Explain.loop in
          check cb (where ^ ": II >= MII") true
            (a.Attribution.ii >= a.Attribution.mii);
          check cb (where ^ ": MII >= floor") true
            (a.Attribution.mii >= a.Attribution.mii_floor);
          List.iter
            (fun b -> check cb (where ^ ": bound <= II") true (b <= a.Attribution.ii))
            [
              a.Attribution.rec_mii; a.Attribution.res_mii;
              a.Attribution.cluster_bound.Attribution.value;
              a.Attribution.copy_bound.Attribution.value;
              a.Attribution.bus_bound;
            ];
          check ci
            (where ^ ": budget sums to II - floor MII")
            (a.Attribution.ii - a.Attribution.mii_floor)
            (List.fold_left
               (fun acc (t : Attribution.term) -> acc + t.Attribution.cycles)
               0 a.Attribution.budget);
          List.iter
            (fun (t : Attribution.term) ->
              check cb (where ^ ": budget terms positive") true
                (t.Attribution.cycles > 0))
            a.Attribution.budget;
          check cb (where ^ ": unroll factor among candidates") true
            (List.mem_assoc r.Explain.unroll_factor r.Explain.considered))
        (Explain.explain_bench ctx bench))
    [ "gsmdec"; "epicdec" ]

(* ------------------------------------------------ missed-locality lint *)

let compiled_one_load ~assigned ~latency =
  let b = Builder.create () in
  let m = Mem_access.make ~symbol:"lint_probe" ~stride:0 ~granularity:4 () in
  let _ = Builder.add b ~dests:[ Builder.fresh_reg b ] ~mem:m Opcode.Load in
  let g = Builder.build b in
  let loop = Loop.make ~name:"unit" ~trip_count:10 g in
  {
    Pipeline.source = loop;
    target = Pipeline.Interleaved { heuristic = `Ipbc; chains = true };
    unroll_factor = 1;
    loop;
    profile = Profile.empty ~n_ops:1;
    latencies = [| latency |];
    chains = Chains.build g;
    schedule =
      { Schedule.ii = 1; n_clusters = 4; cluster = [| assigned |];
        start = [| 0 |]; copies = [] };
    estimated_cycles = 10;
    considered = [];
    bus_window_rejections = 0;
  }

let test_missed_locality_lint () =
  let layout =
    WL.Layout.create cfg ~aligned:true ~run:WL.Layout.Execution_run ~seed:7
  in
  (* Find the scalar's provable home first, then pin it elsewhere. *)
  let probe = compiled_one_load ~assigned:0 ~latency:1 in
  let home =
    match (Locality.analyze cfg layout probe).Locality.verdicts with
    | [ { Locality.clusters = [ h ]; _ } ] -> h
    | _ -> Alcotest.fail "scalar load must have a singleton home"
  in
  let away = (home + 1) mod cfg.Config.n_clusters in
  check cb "mispinned chain is flagged" true
    (has D.Warn "attr/missed-locality"
       (Attribution.missed_locality cfg layout ~where:"t"
          (compiled_one_load ~assigned:away ~latency:1)));
  check ci "well-pinned chain is clean" 0
    (List.length
       (Attribution.missed_locality cfg layout ~where:"t"
          (compiled_one_load ~assigned:home ~latency:1)));
  check ci "covered latency leaves nothing to save" 0
    (List.length
       (Attribution.missed_locality cfg layout ~where:"t"
          (compiled_one_load ~assigned:away
             ~latency:cfg.Config.lat_remote_hit)))

let suite =
  [
    prop_join_commutative;
    prop_join_associative;
    prop_join_idempotent_and_bounds;
    prop_widen_monotone;
    prop_step_closure_closed;
    prop_transfer_sound;
    Alcotest.test_case "classify singleton streams" `Quick
      test_classify_singleton;
    Alcotest.test_case "step closure of a wrapping stride" `Quick
      test_step_closure_gcd_wrap;
    Alcotest.test_case "conservation law: clean stats pass" `Quick
      test_check_stats_clean;
    Alcotest.test_case "conservation law: remote bound" `Quick
      test_check_stats_remote_bound;
    Alcotest.test_case "conservation law: local bound vs AB" `Quick
      test_check_stats_local_bound_ab;
    Alcotest.test_case "conservation law: floors" `Quick
      test_check_stats_floors;
    Alcotest.test_case "attribution budget identity on real loops" `Quick
      test_attribution_budget_identity;
    Alcotest.test_case "missed-locality lint" `Quick
      test_missed_locality_lint;
  ]
