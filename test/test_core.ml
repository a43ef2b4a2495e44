(* Unit tests for vliw_core: profiles, memory-dependent chains, the
   latency-assignment pass (against the paper's worked example), unroll
   selection, cluster heuristics, hints and the full pipeline. *)

open Vliw_ir
module Config = Vliw_arch.Config
module Chains = Vliw_core.Chains
module Cluster_heuristic = Vliw_core.Cluster_heuristic
module Hints = Vliw_core.Hints
module Latency_assign = Vliw_core.Latency_assign
module Pipeline = Vliw_core.Pipeline
module Profile = Vliw_core.Profile
module Unroll_select = Vliw_core.Unroll_select
module Engine = Vliw_sched.Engine
module Schedule = Vliw_sched.Schedule
module WE = Vliw_experiments.Worked_example
module Context = Vliw_experiments.Context

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool
let cf = Alcotest.float
let cfg = Config.default
let ctx = Context.create ()

let op_profile ?(accesses = 1000) ~hit ~fractions () =
  Profile.make_op ~hit_rate:hit ~cluster_fractions:fractions ~accesses

(* ------------------------------------------------------------ profile *)

let test_profile_basics () =
  let p = op_profile ~hit:0.8 ~fractions:[| 0.1; 0.6; 0.2; 0.1 |] () in
  check ci "preferred" 1 (Profile.preferred_cluster p);
  check (cf 1e-9) "distribution" 0.6 (Profile.distribution p);
  check (cf 1e-9) "local ratio" 0.6 (Profile.local_ratio p);
  Alcotest.check_raises "bad hit rate"
    (Invalid_argument "Profile.make_op: hit rate outside [0, 1]") (fun () ->
      ignore (op_profile ~hit:1.5 ~fractions:[| 1.0 |] ()))

let test_profile_weighted () =
  let profile = Profile.empty ~n_ops:3 in
  profile.(0) <-
    Some (op_profile ~accesses:100 ~hit:1.0 ~fractions:[| 1.0; 0.0 |] ());
  profile.(2) <-
    Some (op_profile ~accesses:300 ~hit:1.0 ~fractions:[| 0.0; 1.0 |] ());
  let votes = Profile.weighted_accesses profile [ 0; 2 ] in
  check (cf 1e-6) "cluster 0 votes" 100.0 votes.(0);
  check (cf 1e-6) "cluster 1 votes" 300.0 votes.(1)

(* ------------------------------------------------------------- chains *)

let mem symbol = Mem_access.make ~symbol ~stride:4 ~granularity:4 ()

let chain_ddg () =
  let b = Builder.create () in
  let l1 = Builder.add b ~dests:[ 0 ] ~mem:(mem "a") Opcode.Load in
  let l2 = Builder.add b ~dests:[ 1 ] ~mem:(mem "b") Opcode.Load in
  let c = Builder.add b ~dests:[ 2 ] ~srcs:[ 0; 1 ] Opcode.Int_alu in
  let s1 = Builder.add b ~srcs:[ 2 ] ~mem:(mem "c") Opcode.Store in
  let l3 = Builder.add b ~dests:[ 3 ] ~mem:(mem "d") Opcode.Load in
  Builder.flow b l1 c;
  Builder.flow b l2 c;
  Builder.flow b c s1;
  Builder.dep b ~kind:Edge.Mem_unresolved l1 s1;
  Builder.dep b ~kind:Edge.Mem_anti l2 s1;
  let g = Builder.build b in
  (g, l1, l2, c, s1, l3)

let test_chains_components () =
  let g, l1, l2, _, s1, l3 = chain_ddg () in
  let chains = Chains.build g in
  check ci "two chains" 2 (Chains.n_chains chains);
  check cb "l1 and s1 together" true
    (Chains.chain_of chains l1 = Chains.chain_of chains s1);
  check cb "l2 joins through the anti edge" true
    (Chains.chain_of chains l2 = Chains.chain_of chains s1);
  check cb "l3 alone" true
    (Chains.chain_of chains l3 <> Chains.chain_of chains l1);
  check ci "longest chain" 3 (Chains.longest chains)

let test_chains_non_memory () =
  let g, _, _, c, _, _ = chain_ddg () in
  let chains = Chains.build g in
  check cb "ALU op has no chain" true (Chains.chain_of chains c = None)

(* The register-flow edge l1 -> c -> s1 must NOT merge chains: only
   memory dependences define them. *)
let test_chains_ignore_register_edges () =
  let b = Builder.create () in
  let l1 = Builder.add b ~dests:[ 0 ] ~mem:(mem "a") Opcode.Load in
  let s1 = Builder.add b ~srcs:[ 0 ] ~mem:(mem "b") Opcode.Store in
  Builder.flow b l1 s1;
  let g = Builder.build b in
  let chains = Chains.build g in
  check cb "register flow does not chain" true
    (Chains.chain_of chains l1 <> Chains.chain_of chains s1)

(* --------------------------------------------------- latency assignment *)

(* The paper's own example is the strongest test we have: the expected
   stall estimates reproduce the printed table, and the final
   assignment is n1 = 4, n2 = 1, n6 = 1. *)

let test_expected_stall_matches_paper () =
  let p_n2 = op_profile ~hit:0.9 ~fractions:[| 0.5; 0.5; 0.0; 0.0 |] () in
  let stall lat =
    Latency_assign.expected_stall cfg ~mode:Latency_assign.Four_level p_n2
      ~lat
  in
  check (cf 1e-9) "n2 at RM" 0.0 (stall 15);
  check (cf 1e-9) "n2 to LM" 0.25 (stall 10);
  check (cf 1e-9) "n2 to RH" 0.75 (stall 5);
  check (cf 1e-9) "n2 to LH" 2.95 (stall 1);
  let p_n1 = op_profile ~hit:0.6 ~fractions:[| 0.5; 0.5; 0.0; 0.0 |] () in
  let stall1 lat =
    Latency_assign.expected_stall cfg ~mode:Latency_assign.Four_level p_n1
      ~lat
  in
  check (cf 1e-9) "n1 to LM" 1.0 (stall1 10);
  check (cf 1e-9) "n1 to RH" 3.0 (stall1 5);
  (* The paper prints 6.8 here; the formula that reproduces every other
     cell gives 5.8 (see DESIGN.md). *)
  check (cf 1e-9) "n1 to LH" 5.8 (stall1 1)

let test_benefit_table_matches_paper () =
  let rows = WE.benefit_table ctx in
  let find node lat =
    let _, _, d_ii, d_stall, b =
      List.find (fun (n, l, _, _, _) -> n = node && l = lat) rows
    in
    (d_ii, d_stall, b)
  in
  let d_ii, d_stall, b = find "n2" 10 in
  check (cf 1e-9) "n2->LM dII" 5.0 d_ii;
  check (cf 1e-9) "n2->LM dStall" 0.25 d_stall;
  check (cf 1e-6) "n2->LM B" 20.0 b;
  let _, _, b = find "n2" 5 in
  check (cf 1e-3) "n2->RH B" 13.333 b;
  let _, _, b = find "n2" 1 in
  check (cf 1e-3) "n2->LH B" 4.745 b;
  let d_ii, _, b = find "n1" 10 in
  check (cf 1e-9) "n1->LM dII" 5.0 d_ii;
  check (cf 1e-6) "n1->LM B" 5.0 b

let test_assignment_matches_paper () =
  let lat = WE.assigned ctx in
  check ci "n1 gets the recurrence slack" 4 lat.(WE.n1);
  check ci "n2 reduced to local hit" 1 lat.(WE.n2);
  check ci "n6 reduced to local hit" 1 lat.(WE.n6)

let test_target_mii_matches_paper () =
  check ci "MII 8" 8
    (Latency_assign.target_mii cfg (WE.ddg ())
       ~mode:Latency_assign.Four_level)

let test_two_level_mode () =
  let g = WE.ddg () in
  let profile = WE.profile () in
  let mode = Latency_assign.Two_level { hit = 1; miss = 11 } in
  let lat = Latency_assign.assign cfg g ~mode ~profile in
  check cb "loads end on the two-level ladder or between" true
    (List.for_all (fun v -> lat.(v) >= 1 && lat.(v) <= 11)
       [ WE.n1; WE.n2; WE.n6 ]);
  check ci "ladder levels" 2
    (List.length (Latency_assign.levels cfg mode))

let test_non_recurrence_loads_keep_max () =
  let b = Builder.create () in
  let l = Builder.add b ~dests:[ 0 ] ~mem:(mem "a") Opcode.Load in
  let c = Builder.add b ~dests:[ 1 ] ~srcs:[ 0 ] Opcode.Int_alu in
  Builder.flow b l c;
  let g = Builder.build b in
  let profile = Profile.empty ~n_ops:2 in
  profile.(l) <-
    Some (op_profile ~hit:0.9 ~fractions:[| 1.0; 0.0; 0.0; 0.0 |] ());
  let lat =
    Latency_assign.assign cfg g ~mode:Latency_assign.Four_level ~profile
  in
  check ci "unconstrained load stays at remote miss"
    cfg.Config.lat_remote_miss lat.(l)

let test_stores_keep_unit_latency () =
  let lat = WE.assigned ctx in
  check ci "store latency 1" 1 lat.(3)

(* ---------------------------------------------------- unroll selection *)

let test_individual_factor_table () =
  let f ?(granularity = 4) ?(indirect = false) ~hit stride =
    Unroll_select.individual_factor cfg ~hit_rate:hit
      (Mem_access.make ~symbol:"a" ~indirect ~stride ~granularity ())
  in
  let some = Alcotest.(option ci) in
  check some "stride 4 -> 4" (Some 4) (f ~hit:1.0 4);
  check some "stride 2 -> 8" (Some 8) (f ~hit:1.0 2 ~granularity:2);
  check some "stride 6 -> 8" (Some 8) (f ~hit:1.0 6 ~granularity:2);
  check some "stride 16 -> 1" (Some 1) (f ~hit:1.0 16);
  check some "stride 3 -> 16" (Some 16) (f ~hit:1.0 3 ~granularity:1);
  check some "negative stride" (Some 4) (f ~hit:1.0 (-4));
  check some "indirect excluded" None (f ~hit:1.0 ~indirect:true 4);
  check some "zero hit rate excluded" None (f ~hit:0.0 4);
  check some "wide element excluded" None (f ~hit:1.0 8 ~granularity:8)

let test_ouf_lcm_and_cap () =
  let b = Builder.create () in
  let add stride granularity sym =
    ignore
      (Builder.add b ~dests:[ Builder.fresh_reg b ]
         ~mem:(Mem_access.make ~symbol:sym ~stride ~granularity ())
         Opcode.Load)
  in
  add 4 4 "a";
  (* Ui = 4 *)
  add 2 2 "b";
  (* Ui = 8 *)
  let g = Builder.build b in
  let profile = Profile.empty ~n_ops:2 in
  for i = 0 to 1 do
    profile.(i) <-
      Some (op_profile ~hit:1.0 ~fractions:[| 1.0; 0.0; 0.0; 0.0 |] ())
  done;
  check ci "lcm(4,8)" 8 (Unroll_select.ouf cfg g ~profile);
  check (Alcotest.list ci) "selective candidates" [ 1; 4; 8 ]
    (Unroll_select.candidate_factors cfg g ~profile Unroll_select.Selective)

let test_estimated_cycles () =
  check ci "(trip + SC - 1) * II" 105
    (Unroll_select.estimated_cycles ~trip_count:100 ~ii:1 ~stage_count:6)

(* --------------------------------------------------- cluster heuristics *)

let test_chain_cluster_vote () =
  let g, l1, l2, _, s1, _ = chain_ddg () in
  let chains = Chains.build g in
  let profile = Profile.empty ~n_ops:(Ddg.n_ops g) in
  profile.(l1) <-
    Some (op_profile ~accesses:100 ~hit:1.0 ~fractions:[| 1.0; 0.0; 0.0; 0.0 |] ());
  profile.(l2) <-
    Some (op_profile ~accesses:500 ~hit:1.0 ~fractions:[| 0.0; 0.0; 1.0; 0.0 |] ());
  profile.(s1) <-
    Some (op_profile ~accesses:100 ~hit:1.0 ~fractions:[| 1.0; 0.0; 0.0; 0.0 |] ());
  let c = Option.get (Chains.chain_of chains l1) in
  check ci "heaviest member wins the vote" 2
    (Cluster_heuristic.chain_cluster chains profile c)

let test_ibc_hooks_pin_chain () =
  let g, l1, _, _, s1, _ = chain_ddg () in
  let chains = Chains.build g in
  let hooks = Cluster_heuristic.hooks g (Cluster_heuristic.Ibc chains) in
  check cb "first chain member free" true (hooks.Engine.choice l1 = Engine.Free);
  hooks.Engine.on_scheduled ~op:l1 ~cluster:3;
  check cb "rest of the chain pinned" true
    (hooks.Engine.choice s1 = Engine.Forced 3);
  hooks.Engine.reset ();
  check cb "reset unpins" true (hooks.Engine.choice s1 = Engine.Free)

let test_ipbc_hooks_forced () =
  let g, l1, l2, c, s1, _ = chain_ddg () in
  let chains = Chains.build g in
  let profile = Profile.empty ~n_ops:(Ddg.n_ops g) in
  List.iter
    (fun i ->
      profile.(i) <-
        Some (op_profile ~hit:1.0 ~fractions:[| 0.0; 1.0; 0.0; 0.0 |] ()))
    [ l1; l2; s1 ];
  let hooks =
    Cluster_heuristic.hooks g (Cluster_heuristic.Ipbc (chains, profile))
  in
  check cb "memory op forced to preferred" true
    (hooks.Engine.choice l1 = Engine.Forced 1);
  check cb "non-memory op free" true (hooks.Engine.choice c = Engine.Free)

(* -------------------------------------------------------------- hints *)

let test_hints_top_k () =
  let b = Builder.create () in
  let mk sym = Builder.add b ~dests:[ Builder.fresh_reg b ] ~mem:(mem sym) Opcode.Load in
  let l1 = mk "a" and l2 = mk "b" and l3 = mk "c" in
  let g = Builder.build b in
  let profile = Profile.empty ~n_ops:3 in
  let set i accesses fractions =
    profile.(i) <- Some (op_profile ~accesses ~hit:1.0 ~fractions ())
  in
  set l1 1000 [| 0.0; 1.0; 0.0; 0.0 |];
  (* remote from cluster 0: big benefit *)
  set l2 10 [| 0.0; 1.0; 0.0; 0.0 |];
  (* small benefit *)
  set l3 1000 [| 1.0; 0.0; 0.0; 0.0 |];
  (* local: zero benefit *)
  let schedule =
    { Schedule.ii = 1; n_clusters = 4; cluster = [| 0; 0; 0 |];
      start = [| 0; 0; 0 |]; copies = [] }
  in
  (* Two buffer entries: K = 1. *)
  let flags =
    Hints.attractable { cfg with Config.ab_entries = 2 } g ~profile ~schedule
  in
  check cb "largest benefit marked" true flags.(l1);
  check cb "smaller benefit cut by k" false flags.(l2);
  check cb "local op never marked" false flags.(l3)

(* ------------------------------------------------------------ pipeline *)

let small_loop () =
  let b = Builder.create () in
  let l =
    Builder.add b ~dests:[ 0 ]
      ~mem:(Mem_access.make ~symbol:"arr" ~stride:4 ~granularity:4 ~footprint:1024 ())
      Opcode.Load
  in
  let c = Builder.add b ~dests:[ 1 ] ~srcs:[ 0 ] Opcode.Int_alu in
  let s =
    Builder.add b ~srcs:[ 1 ]
      ~mem:(Mem_access.make ~symbol:"out" ~stride:4 ~granularity:4 ~footprint:1024 ())
      Opcode.Store
  in
  Builder.flow b l c;
  Builder.flow b c s;
  Loop.make ~name:"small" ~trip_count:160 (Builder.build b)

let trivial_profiler (loop : Loop.t) =
  let n = Ddg.n_ops loop.Loop.ddg in
  let profile = Profile.empty ~n_ops:n in
  List.iter
    (fun i ->
      profile.(i) <-
        Some (op_profile ~hit:0.95 ~fractions:[| 1.0; 0.0; 0.0; 0.0 |] ()))
    (Ddg.memory_ops loop.Loop.ddg);
  profile

let all_targets =
  [
    Pipeline.Interleaved { heuristic = `Ipbc; chains = true };
    Pipeline.Interleaved { heuristic = `Ibc; chains = true };
    Pipeline.Interleaved { heuristic = `Ipbc; chains = false };
    Pipeline.Unified { slow = false };
    Pipeline.Unified { slow = true };
    Pipeline.Multivliw;
  ]

let test_pipeline_all_targets () =
  List.iter
    (fun target ->
      let c =
        Pipeline.compile cfg ~target ~strategy:Unroll_select.Selective
          ~profiler:trivial_profiler (small_loop ())
      in
      match
        Schedule.validate cfg c.Pipeline.loop.Loop.ddg
          ~latency:(fun i -> c.Pipeline.latencies.(i))
          ~allow_cross_cluster_mem:(Pipeline.allow_cross_cluster_mem target)
          c.Pipeline.schedule
      with
      | Ok () -> ()
      | Error e ->
          Alcotest.fail (Pipeline.target_to_string target ^ ": " ^ e))
    all_targets

let test_pipeline_selective_not_worse () =
  let compile strategy =
    (Pipeline.compile cfg
       ~target:(Pipeline.Interleaved { heuristic = `Ipbc; chains = true })
       ~strategy ~profiler:trivial_profiler (small_loop ()))
      .Pipeline.estimated_cycles
  in
  let selective = compile Unroll_select.Selective in
  check cb "selective <= no unrolling" true
    (selective <= compile Unroll_select.No_unrolling);
  check cb "selective <= OUF" true
    (selective <= compile Unroll_select.Ouf_unrolling)

let test_pipeline_mode_of_target () =
  (match Pipeline.mode_of_target cfg (Pipeline.Unified { slow = true }) with
  | Latency_assign.Two_level { hit; miss } ->
      check ci "slow hit" 5 hit;
      check ci "slow miss" 15 miss
  | Latency_assign.Four_level -> Alcotest.fail "expected two-level");
  match
    Pipeline.mode_of_target cfg
      (Pipeline.Interleaved { heuristic = `Ibc; chains = true })
  with
  | Latency_assign.Four_level -> ()
  | Latency_assign.Two_level _ -> Alcotest.fail "expected four-level"

(* The compile path allocates little per scheduled operation: the
   engine's inner loops run on flat per-schedule state, latency
   assignment probes in place, and the hooks answer from prebuilt
   choices.  The suite is compiled under IPBC first, so the measured
   IBC compile finds every profile in the context's memo (and, the
   target differing, shares no candidate); the denominator is every
   operation of every candidate it schedules.  With the allocating
   engine, ordering and latency assignment this took 1938 words per
   operation; it now takes 365. *)
let test_compile_allocation () =
  let ctx = Context.create () in
  let benches = Vliw_workloads.Mediabench.all in
  List.iter
    (fun b -> ignore (Context.compiled ctx b (Context.interleaved `Ipbc)))
    benches;
  let before = Gc.minor_words () in
  let compiled =
    List.concat_map
      (fun b -> Context.compiled ctx b (Context.interleaved `Ibc))
      benches
  in
  let words = Gc.minor_words () -. before in
  let ops =
    List.fold_left
      (fun acc (c : Pipeline.compiled) ->
        List.fold_left
          (fun acc (factor, _) ->
            acc + (factor * Ddg.n_ops c.Pipeline.source.Loop.ddg))
          acc c.Pipeline.considered)
      0 compiled
  in
  check ci "scheduled operations" 4994 ops;
  let per = words /. float_of_int ops in
  if not (per < 600.) then
    Alcotest.failf "%.1f minor words per scheduled operation (%d operations)"
      per ops

let suite =
  [
    ("profile: basics", `Quick, test_profile_basics);
    ("profile: weighted votes", `Quick, test_profile_weighted);
    ("chains: components", `Quick, test_chains_components);
    ("chains: non-memory excluded", `Quick, test_chains_non_memory);
    ("chains: register edges ignored", `Quick, test_chains_ignore_register_edges);
    ("latency: stall estimates match the paper", `Quick, test_expected_stall_matches_paper);
    ("latency: benefit table matches the paper", `Quick, test_benefit_table_matches_paper);
    ("latency: final assignment matches the paper", `Quick, test_assignment_matches_paper);
    ("latency: MII matches the paper", `Quick, test_target_mii_matches_paper);
    ("latency: two-level mode", `Quick, test_two_level_mode);
    ("latency: non-recurrence loads keep max", `Quick, test_non_recurrence_loads_keep_max);
    ("latency: stores stay at one cycle", `Quick, test_stores_keep_unit_latency);
    ("unroll-select: individual factors", `Quick, test_individual_factor_table);
    ("unroll-select: lcm and candidates", `Quick, test_ouf_lcm_and_cap);
    ("unroll-select: Texec formula", `Quick, test_estimated_cycles);
    ("heuristics: chain vote", `Quick, test_chain_cluster_vote);
    ("heuristics: IBC pins chains while scheduling", `Quick, test_ibc_hooks_pin_chain);
    ("heuristics: IPBC pre-resolves", `Quick, test_ipbc_hooks_forced);
    ("hints: top-k attractable", `Quick, test_hints_top_k);
    ("pipeline: compiles and validates on every target", `Quick, test_pipeline_all_targets);
    ("pipeline: selective unrolling never worse", `Quick, test_pipeline_selective_not_worse);
    ("pipeline: latency modes per target", `Quick, test_pipeline_mode_of_target);
    ("compile: < 600 minor words per scheduled operation", `Quick,
     test_compile_allocation);
  ]
