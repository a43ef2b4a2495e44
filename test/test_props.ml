(* Property-based tests (qcheck): schedule validity over random loops,
   unrolling invariants, MII monotonicity, LRU equivalence with a
   reference model, and statistical estimators. *)

open Vliw_ir
module Config = Vliw_arch.Config
module Engine = Vliw_sched.Engine
module Ordering = Vliw_sched.Ordering
module Resources = Vliw_sched.Resources
module Schedule = Vliw_sched.Schedule
module Set_assoc = Vliw_arch.Set_assoc
module Latency_assign = Vliw_core.Latency_assign
module Profile = Vliw_core.Profile

let cfg = Config.default

(* ------------------------------------------- random DDG generation *)

(* A loop description drawn from a seed: random opcodes, forward edges
   with distance 0, backward/self edges with distance >= 1 (so no
   zero-distance cycles can appear). *)
let build_random_ddg rng =
  let n = 2 + QCheck.Gen.generate1 ~rand:rng (QCheck.Gen.int_bound 14) in
  let gen_int bound = QCheck.Gen.generate1 ~rand:rng (QCheck.Gen.int_bound bound) in
  let b = Builder.create () in
  for i = 0 to n - 1 do
    let id =
      match gen_int 4 with
      | 0 ->
          Builder.add b
            ~dests:[ Builder.fresh_reg b ]
            ~mem:
              (Mem_access.make
                 ~symbol:(Printf.sprintf "s%d" (gen_int 3))
                 ~stride:(4 * (1 + gen_int 3))
                 ~granularity:4 ())
            Opcode.Load
      | 1 ->
          Builder.add b ~srcs:[ 0 ]
            ~mem:
              (Mem_access.make
                 ~symbol:(Printf.sprintf "s%d" (gen_int 3))
                 ~stride:4 ~granularity:4 ())
            Opcode.Store
      | 2 -> Builder.add b ~dests:[ Builder.fresh_reg b ] Opcode.Fp_alu
      | 3 -> Builder.add b ~dests:[ Builder.fresh_reg b ] Opcode.Int_mul
      | _ -> Builder.add b ~dests:[ Builder.fresh_reg b ] Opcode.Int_alu
    in
    ignore id;
    if i > 0 then begin
      (* a forward edge from a random earlier node *)
      let src = gen_int (i - 1) in
      let kind =
        match gen_int 3 with
        | 0 -> Edge.Reg_flow
        | 1 -> Edge.Reg_anti
        | _ -> Edge.Reg_flow
      in
      Builder.dep b ~kind src i
    end;
    (* occasionally a loop-carried back edge *)
    if i > 1 && gen_int 3 = 0 then
      Builder.dep b ~kind:Edge.Reg_flow ~distance:(1 + gen_int 1) i (gen_int i)
  done;
  Builder.build b

let make_test ~name prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:60 ~name
       QCheck.(make Gen.(int_bound 1_000_000))
       prop)

let random_ddg_prop ~name f =
  make_test ~name (fun seed ->
      let rng = Random.State.make [| seed |] in
      f (build_random_ddg rng))

(* ---------------------------------------------------------- properties *)

let prop_schedule_validates =
  random_ddg_prop ~name:"every random loop schedules and validates" (fun g ->
      let latency i = Ddg.default_latency g i in
      match Engine.schedule cfg g ~latency () with
      | None -> false
      | Some s -> (
          match Schedule.validate cfg g ~latency s with
          | Ok () -> true
          | Error _ -> false))

let prop_schedule_ii_at_least_mii =
  random_ddg_prop ~name:"achieved II is never below MII" (fun g ->
      let latency i = Ddg.default_latency g i in
      match Engine.schedule cfg g ~latency () with
      | None -> false
      | Some s -> s.Schedule.ii >= Resources.mii cfg g ~latency)

let prop_ordering_permutation =
  random_ddg_prop ~name:"SMS ordering is a permutation" (fun g ->
      let latency i = Ddg.default_latency g i in
      let ii = Resources.mii cfg g ~latency in
      let order = Ordering.order g ~latency ~ii in
      List.sort compare order = List.init (Ddg.n_ops g) (fun i -> i))

let prop_unroll_counts =
  random_ddg_prop ~name:"unrolling scales ops and edges by the factor"
    (fun g ->
      List.for_all
        (fun factor ->
          let u = Unroll.ddg g ~factor in
          Ddg.n_ops u = factor * Ddg.n_ops g
          && List.length (Ddg.edges u) = factor * List.length (Ddg.edges g))
        [ 2; 3; 4 ])

let prop_unroll_distance_sum =
  random_ddg_prop ~name:"unrolling preserves total dependence distance"
    (fun g ->
      let sum edges =
        List.fold_left (fun acc (e : Edge.t) -> acc + e.Edge.distance) 0 edges
      in
      List.for_all
        (fun factor -> sum (Ddg.edges (Unroll.ddg g ~factor)) = sum (Ddg.edges g))
        [ 2; 4; 8 ])

let prop_unroll_preserves_mii_scaled =
  random_ddg_prop ~name:"RecMII of the unrolled loop is at most factor x RecMII"
    (fun g ->
      let latency i = Ddg.default_latency g i in
      let base = Mii.rec_mii g ~latency in
      let factor = 4 in
      let u = Unroll.ddg g ~factor in
      let latency_u i = Ddg.default_latency u i in
      Mii.rec_mii u ~latency:latency_u <= factor * base)

let prop_mii_monotone =
  random_ddg_prop ~name:"RecMII is monotone in latencies" (fun g ->
      let latency i = Ddg.default_latency g i in
      let heavier i = latency i + 3 in
      Mii.rec_mii g ~latency <= Mii.rec_mii g ~latency:heavier)

(* [Mii] against the binary-searched Bellman–Ford spec.  Cases: a
   random loop's recurrences, the same unrolled x2..x32 (hundreds of
   nodes), and the complete 8-node graph (16,064 simple cycles), each
   under random latencies. *)
let prop_mii_matches_spec =
  make_test ~name:"RecMII solver matches the Bellman-Ford spec" (fun seed ->
      let rng = Random.State.make [| seed |] in
      let gen_int bound = QCheck.Gen.generate1 ~rand:rng (QCheck.Gen.int_bound bound) in
      let g =
        match seed mod 3 with
        | 0 -> build_random_ddg rng
        | 1 -> Unroll.ddg (build_random_ddg rng) ~factor:(1 lsl (1 + gen_int 4))
        | _ -> Mii_spec.complete_graph ()
      in
      let lat = Array.init (Ddg.n_ops g) (fun _ -> gen_int 12) in
      let latency i = lat.(i) in
      List.for_all
        (fun nodes ->
          let spec () = Mii_spec.solve g ~latency ~nodes in
          let ii = spec () in
          let s = Mii.solver g ~nodes in
          let agree =
            Mii.solve s ~latency = ii
            && Mii.solve (Mii.solver g ~nodes) ~upper_feasible:(ii + gen_int 5)
                 ~latency
               = ii
            && Mii.solve_feasible s ~latency ~ii
            && (ii = 1 || not (Mii.solve_feasible s ~latency ~ii:(ii - 1)))
          in
          (* Repeated queries on one solver, as latency assignment makes
             them: latencies only go down, the previous II caps the
             climb on every other query. *)
          let rec lower k prev =
            k = 0
            ||
            let v = List.nth nodes (gen_int (List.length nodes - 1)) in
            lat.(v) <- max 0 (lat.(v) - 1 - gen_int 4);
            let ii = spec () in
            let got =
              if k mod 2 = 0 then Mii.solve s ~upper_feasible:prev ~latency
              else Mii.solve s ~latency
            in
            got = ii && lower (k - 1) ii
          in
          agree && lower 6 ii)
        (Scc.recurrences g))

(* [Mrt] against the full-copy spec over random interleavings of
   reservations, nested marks and LIFO restores.  The machine is drawn
   too — bus occupancy 1..4 with II from 1 to occupancy + 2, so bus
   windows wrap, charge one slot several times, or not at all — and
   after every step every probe at every cycle in [-2*II, 2*II] and
   every cluster load must agree, as must the rejection counts. *)
let prop_mrt_matches_spec =
  make_test ~name:"MRT undo journal matches the full-copy spec" (fun seed ->
      let module Mrt = Vliw_sched.Mrt in
      let rng = Random.State.make [| seed |] in
      let gen_int bound = QCheck.Gen.generate1 ~rand:rng (QCheck.Gen.int_bound bound) in
      let occupancy = 1 + gen_int 3 in
      let cfg =
        {
          cfg with
          Config.n_clusters = 1 lsl gen_int 2;
          int_fus_per_cluster = 1 + gen_int 1;
          issue_width_per_cluster = 1 + gen_int 3;
          n_reg_buses = 1 + gen_int 3;
          bus_occupancy = occupancy;
        }
      in
      let ii = 1 + gen_int (occupancy + 1) in
      let mrt = Mrt.create cfg ~ii and spec = Mrt_spec.create cfg ~ii in
      let rejections0 = Mrt.bus_rejections () in
      let fus = Resources.fu_classes in
      let clusters = List.init cfg.Config.n_clusters Fun.id in
      let cycles = List.init ((4 * ii) + 1) (fun k -> k - (2 * ii)) in
      let agree () =
        List.for_all
          (fun cycle ->
            Mrt.reg_bus_free mrt ~cycle = Mrt_spec.reg_bus_free spec ~cycle
            && List.for_all
                 (fun cluster ->
                   Mrt.issue_free mrt ~cluster ~cycle
                   = Mrt_spec.issue_free spec ~cluster ~cycle
                   && List.for_all
                        (fun fu ->
                          Mrt.fu_free mrt ~cluster ~fu ~cycle
                          = Mrt_spec.fu_free spec ~cluster ~fu ~cycle)
                        fus)
                 clusters)
          cycles
        && List.for_all
             (fun c -> Mrt.cluster_load mrt c = Mrt_spec.cluster_load spec c)
             clusters
        && Mrt.bus_rejections () - rejections0 = spec.Mrt_spec.rejections
      in
      (* Marks taken and not yet rolled past, innermost first. *)
      let marks = ref [] in
      let step () =
        let cycle = gen_int (6 * ii) - (3 * ii) in
        let cluster = gen_int (cfg.Config.n_clusters - 1) in
        match gen_int 9 with
        | 0 | 1 ->
            let fu = List.nth fus (gen_int 2) in
            if Mrt.fu_free mrt ~cluster ~fu ~cycle then begin
              Mrt.reserve_fu mrt ~cluster ~fu ~cycle;
              Mrt_spec.reserve_fu spec ~cluster ~fu ~cycle
            end
        | 2 ->
            if Mrt.issue_free mrt ~cluster ~cycle then begin
              Mrt.reserve_issue mrt ~cluster ~cycle;
              Mrt_spec.reserve_issue spec ~cluster ~cycle
            end
        | 3 | 4 ->
            let free = Mrt.reg_bus_free mrt ~cycle in
            if Mrt_spec.reg_bus_free spec ~cycle && free then begin
              Mrt.reserve_reg_bus mrt ~cycle;
              Mrt_spec.reserve_reg_bus spec ~cycle
            end
        | 5 | 6 -> marks := (Mrt.snapshot mrt, Mrt_spec.snapshot spec) :: !marks
        | _ -> (
            (* Roll back to a random live mark; the ones above it die,
               it stays live for further restores. *)
            match !marks with
            | [] -> ()
            | live ->
                let rec drop k = function
                  | _ :: rest when k > 0 -> drop (k - 1) rest
                  | l -> l
                in
                marks := drop (gen_int (List.length live - 1)) live;
                let m, s = List.hd !marks in
                Mrt.restore mrt m;
                Mrt_spec.restore spec s)
      in
      let rec run k = k = 0 || (step (); agree () && run (k - 1)) in
      run 80)

(* [Ordering] against the per-II path-closure spec: random loops and
   their x2..x8 unrolls at II from MII to MII+4, and the RecMII its
   [prepare] keeps against [Mii.rec_mii]. *)
let ordering_matches_spec g ~latency =
  let prepared = Ordering.prepare g ~latency in
  let mii = Resources.mii cfg g ~latency in
  Ordering.rec_mii prepared = Mii.rec_mii g ~latency
  && List.for_all
       (fun ii ->
         let spec = Ordering_spec.order g ~latency ~ii in
         Ordering.ordered prepared g ~latency ~ii = spec
         && Ordering.order g ~latency ~ii = spec)
       (List.init 5 (fun k -> mii + k))

let prop_ordering_matches_spec =
  make_test ~name:"SMS ordering matches the per-II spec" (fun seed ->
      let rng = Random.State.make [| seed |] in
      let g = build_random_ddg rng in
      let factor = 2 + QCheck.Gen.generate1 ~rand:rng (QCheck.Gen.int_bound 6) in
      List.for_all
        (fun g -> ordering_matches_spec g ~latency:(Ddg.default_latency g))
        [ g; Unroll.ddg g ~factor ])

(* The same agreement on every loop of the benchmark suite. *)
let test_ordering_suite_matches_spec =
  Alcotest.test_case "SMS ordering matches the spec on every suite loop"
    `Quick (fun () ->
      List.iter
        (fun bench ->
          List.iter
            (fun (loop : Loop.t) ->
              let g = loop.Loop.ddg in
              Alcotest.(check bool)
                (loop.Loop.name ^ " ordering matches the spec")
                true
                (ordering_matches_spec g ~latency:(Ddg.default_latency g)))
            (Vliw_workloads.Benchspec.loops bench))
        Vliw_workloads.Mediabench.all)

(* LRU set-associative array vs. a naive reference model, over random
   shapes and the whole interface: the victim [insert] reports must be
   the reference's least-recently-used key, and invalidation holes must
   be refilled before anything is evicted. *)
let prop_set_assoc_matches_reference =
  make_test ~name:"set-assoc array matches a reference LRU model"
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let gen_int bound = QCheck.Gen.generate1 ~rand:rng (QCheck.Gen.int_bound bound) in
      let sets = 1 + gen_int 7 and ways = 1 + gen_int 3 in
      let t = Set_assoc.create ~sets ~ways in
      (* reference: per set, most-recent-first list of keys *)
      let reference = Array.make sets [] in
      let ref_lookup key =
        let s = key mod sets in
        if List.mem key reference.(s) then begin
          reference.(s) <- key :: List.filter (( <> ) key) reference.(s);
          true
        end
        else false
      in
      let ref_insert key =
        let s = key mod sets in
        if ref_lookup key then None
        else if List.length reference.(s) >= ways then begin
          let keep = List.filteri (fun i _ -> i < ways - 1) reference.(s) in
          let victim = List.nth reference.(s) (ways - 1) in
          reference.(s) <- key :: keep;
          Some victim
        end
        else begin
          reference.(s) <- key :: reference.(s);
          None
        end
      in
      let ref_occupancy () =
        Array.fold_left (fun acc l -> acc + List.length l) 0 reference
      in
      let ok = ref true in
      let expect b = if not b then ok := false in
      for _ = 1 to 300 do
        let key = gen_int ((3 * sets * ways) - 1) in
        match gen_int 19 with
        | 0 ->
            Set_assoc.flush t;
            Array.fill reference 0 sets []
        | 1 | 2 ->
            Set_assoc.invalidate t key;
            reference.(key mod sets) <-
              List.filter (( <> ) key) reference.(key mod sets)
        | 3 | 4 -> expect (Set_assoc.occupancy t = ref_occupancy ())
        | 5 | 6 | 7 ->
            expect
              (Set_assoc.contains t key = List.mem key reference.(key mod sets))
        | 8 | 9 | 10 | 11 | 12 -> expect (Set_assoc.lookup t key = ref_lookup key)
        | _ -> expect (Set_assoc.insert t key = ref_insert key)
      done;
      !ok)

(* ------------------------------------------- profile projection *)

(* A memory-heavy random loop for the profile run: every access shape the
   profiler distinguishes — element size, stride (0 = scalar), offset,
   wrapping footprint (so cache size and associativity decide reuse),
   indirect walks and all three storage classes (so alignment to N x I
   moves stack and heap bases). *)
let random_profile_loop rng =
  let gen_int bound = QCheck.Gen.generate1 ~rand:rng (QCheck.Gen.int_bound bound) in
  let pick l = List.nth l (gen_int (List.length l - 1)) in
  let b = Builder.create () in
  for _ = 0 to gen_int 6 do
    if gen_int 3 = 0 then
      ignore (Builder.add b ~dests:[ Builder.fresh_reg b ] Opcode.Int_alu);
    let granularity = pick [ 1; 2; 4; 8 ] in
    ignore
      (Builder.add b
         ~dests:[ Builder.fresh_reg b ]
         ~mem:
           (Mem_access.make
              ~storage:(pick Mem_access.[ Global; Stack; Heap ])
              ~offset:(granularity * gen_int 7)
              ~indirect:(gen_int 4 = 0)
              ~footprint:(pick [ 0; 64; 256; 1024; 4096 ])
              ~symbol:(Printf.sprintf "s%d" (gen_int 3))
              ~stride:(granularity * gen_int 4)
              ~granularity ())
         Opcode.Load)
  done;
  Loop.make ~name:"profiled" ~trip_count:(64 * (1 + gen_int 15)) (Builder.build b)

(* What a profile run needs of a config beyond [Config.validate]: a
   presence model with at least one set of whole ways. *)
let profilable (c : Config.t) =
  let n_blocks = c.Config.cache_size / c.Config.block_size in
  Config.validate c = Ok ()
  && n_blocks >= c.Config.associativity
  && n_blocks mod c.Config.associativity = 0

let random_geometry gen_int (c : Config.t) =
  let pow2 k = 1 lsl k in
  let n_clusters = pow2 (gen_int 3) and interleaving_factor = pow2 (gen_int 3) in
  let block_size = n_clusters * interleaving_factor * pow2 (gen_int 2) in
  let n_blocks = n_clusters * pow2 (1 + gen_int 3) in
  {
    c with
    Config.n_clusters;
    interleaving_factor;
    block_size;
    cache_size = n_blocks * block_size;
    associativity = min n_blocks (pow2 (gen_int 2));
  }

(* Every field outside the cache geometry, redrawn so that [b] differs
   from [a] in each of them and both stay valid. *)
let redraw_other_fields gen_int (a : Config.t) =
  let d () = 1 + gen_int 3 in
  let lat = d () in
  {
    a with
    Config.int_fus_per_cluster = a.Config.int_fus_per_cluster + d ();
    fp_fus_per_cluster = a.Config.fp_fus_per_cluster + d ();
    mem_fus_per_cluster = a.Config.mem_fus_per_cluster + d ();
    issue_width_per_cluster = a.Config.issue_width_per_cluster + d ();
    n_reg_buses = a.Config.n_reg_buses + d ();
    n_mem_buses = a.Config.n_mem_buses + d ();
    bus_occupancy = a.Config.bus_occupancy + d ();
    reg_copy_latency = a.Config.reg_copy_latency + d ();
    lat_local_hit = a.Config.lat_local_hit + lat;
    lat_remote_hit = a.Config.lat_remote_hit + lat;
    lat_local_miss = a.Config.lat_local_miss + lat;
    lat_remote_miss = a.Config.lat_remote_miss + lat;
    lat_unified_fast = a.Config.lat_unified_fast + d ();
    lat_unified_slow = a.Config.lat_unified_slow + d ();
    lat_next_level = a.Config.lat_next_level + d ();
    ab_entries = a.Config.ab_entries * 4;
    ab_associativity = a.Config.ab_associativity * 2;
  }

(* One geometry field moved to another valid value (the rest of the
   geometry kept), or [c] itself when no such move is valid. *)
let move_one_geometry_field gen_int (c : Config.t) =
  let scaled v = List.filter (fun v -> v > 0) [ v * 2; v / 2; v * 4; v / 4 ] in
  let candidates =
    match gen_int 4 with
    | 0 -> List.map (fun n_clusters -> { c with Config.n_clusters }) (scaled c.Config.n_clusters)
    | 1 ->
        List.map
          (fun interleaving_factor -> { c with Config.interleaving_factor })
          (scaled c.Config.interleaving_factor)
    | 2 -> List.map (fun cache_size -> { c with Config.cache_size }) (scaled c.Config.cache_size)
    | 3 -> List.map (fun block_size -> { c with Config.block_size }) (scaled c.Config.block_size)
    | _ ->
        List.map
          (fun associativity -> { c with Config.associativity })
          (scaled c.Config.associativity)
  in
  match List.filter profilable candidates with
  | [] -> c
  | valid -> List.nth valid (gen_int (List.length valid - 1))

(* Two valid configs that differ in every field outside the cache
   geometry — and, in two cases of three, in one geometry field too —
   must profile every loop and its unrolls identically whenever
   [Config.profile_fingerprint] calls them equal.  This is what lets the
   experiment context key its profile memo by the fingerprint; a
   projection that forgets a field the profile run reads pairs up
   configs whose profiles differ. *)
let prop_profile_fingerprint =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:150
       ~name:"profile depends only on the profile fingerprint"
       QCheck.(make Gen.(int_bound 1_000_000))
       (fun seed ->
         let rng = Random.State.make [| seed |] in
         let gen_int bound = QCheck.Gen.generate1 ~rand:rng (QCheck.Gen.int_bound bound) in
         let a =
           redraw_other_fields gen_int (random_geometry gen_int Config.default)
         in
         let b = redraw_other_fields gen_int a in
         let b = if gen_int 2 = 0 then b else move_one_geometry_field gen_int b in
         assert (profilable a && profilable b);
         let source = random_profile_loop rng in
         let aligned = gen_int 1 = 0 and seed = gen_int 1000 in
         let profile cfg loop =
           Vliw_workloads.Profiling.profile_loop cfg
             (Vliw_workloads.Layout.create cfg ~aligned
                ~run:Vliw_workloads.Layout.Profile_run ~seed)
             loop
         in
         Config.profile_fingerprint a <> Config.profile_fingerprint b
         || List.for_all
              (fun factor ->
                let loop = Loop.unrolled source ~factor in
                profile a loop = profile b loop)
              [ 1; 2 + gen_int 6 ]))

let prop_expected_stall_monotone =
  make_test ~name:"expected stall decreases as the assigned latency grows"
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let gen_f () =
        QCheck.Gen.generate1 ~rand:rng (QCheck.Gen.float_bound_inclusive 1.0)
      in
      let hit = gen_f () and l0 = gen_f () in
      let p =
        Profile.make_op ~hit_rate:hit
          ~cluster_fractions:[| l0; 1.0 -. l0; 0.0; 0.0 |]
          ~accesses:100
      in
      let stall lat =
        Latency_assign.expected_stall cfg ~mode:Latency_assign.Four_level p
          ~lat
      in
      let rec non_increasing = function
        | a :: (b :: _ as rest) -> stall a >= stall b -. 1e-9 && non_increasing rest
        | _ -> true
      in
      non_increasing [ 1; 3; 5; 8; 10; 12; 15; 20 ])

let prop_assignment_within_ladder =
  random_ddg_prop ~name:"assigned latencies stay within the ladder + slack"
    (fun g ->
      let profile = Profile.empty ~n_ops:(Ddg.n_ops g) in
      List.iter
        (fun i ->
          profile.(i) <-
            Some
              (Profile.make_op ~hit_rate:0.8
                 ~cluster_fractions:[| 0.7; 0.1; 0.1; 0.1 |] ~accesses:100))
        (Ddg.memory_ops g);
      let lat =
        Latency_assign.assign cfg g ~mode:Latency_assign.Four_level ~profile
      in
      List.for_all
        (fun i ->
          (not (Operation.is_load (Ddg.op g i))) || lat.(i) >= 1)
        (List.init (Ddg.n_ops g) Fun.id))

let prop_stacked_bar_width =
  make_test ~name:"stacked bars always have the requested width"
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let gen_f () =
        QCheck.Gen.generate1 ~rand:rng (QCheck.Gen.float_bound_inclusive 1.0)
      in
      let segments = List.init 5 (fun _ -> gen_f ()) in
      String.length (Vliw_report.Table.stacked_bar ~width:30 segments) = 30)

let prop_prng_bound =
  make_test ~name:"prng stays within its bound" (fun seed ->
      let t = Vliw_workloads.Prng.create ~seed in
      let ok = ref true in
      for _ = 1 to 100 do
        let v = Vliw_workloads.Prng.next_int t ~bound:13 in
        if v < 0 || v >= 13 then ok := false
      done;
      !ok)

let suite =
  [
    prop_schedule_validates;
    prop_schedule_ii_at_least_mii;
    prop_ordering_permutation;
    prop_unroll_counts;
    prop_unroll_distance_sum;
    prop_unroll_preserves_mii_scaled;
    prop_mii_monotone;
    prop_mii_matches_spec;
    prop_mrt_matches_spec;
    prop_ordering_matches_spec;
    test_ordering_suite_matches_spec;
    prop_set_assoc_matches_reference;
    prop_profile_fingerprint;
    prop_expected_stall_monotone;
    prop_assignment_within_ladder;
    prop_stacked_bar_width;
    prop_prng_bound;
  ]

(* ------------------------------------------------- cache-layer properties *)

(* MSI invariant: no block is ever Modified in one cluster while resident
   anywhere else. *)
let prop_msi_single_writer =
  make_test ~name:"MSI: a Modified block has no other holders" (fun seed ->
      let rng = Random.State.make [| seed |] in
      let gen_int bound =
        QCheck.Gen.generate1 ~rand:rng (QCheck.Gen.int_bound bound)
      in
      let c = Vliw_arch.Coherent_cache.create cfg in
      let ok = ref true in
      for step = 0 to 300 do
        let cluster = gen_int 3 in
        let block = gen_int 9 in
        let store = gen_int 1 = 1 in
        ignore
          (Vliw_arch.Coherent_cache.access c ~now:(step * 20) ~cluster
             ~addr:(block * cfg.Vliw_arch.Config.block_size)
             ~store);
        for b = 0 to 9 do
          let holders =
            List.filter
              (fun cl ->
                Vliw_arch.Coherent_cache.state c ~cluster:cl ~block:b
                <> `Invalid)
              [ 0; 1; 2; 3 ]
          in
          let modified =
            List.filter
              (fun cl ->
                Vliw_arch.Coherent_cache.state c ~cluster:cl ~block:b
                = `Modified)
              holders
          in
          if modified <> [] && List.length holders > 1 then ok := false
        done
      done;
      !ok)

(* The interleaved cache never claims a *local* hit for a remote word
   unless an attraction buffer supplied it. *)
let prop_interleaved_locality_honest =
  make_test ~name:"interleaved: local hits are local (no AB)" (fun seed ->
      let rng = Random.State.make [| seed |] in
      let gen_int bound =
        QCheck.Gen.generate1 ~rand:rng (QCheck.Gen.int_bound bound)
      in
      let c = Vliw_arch.Interleaved_cache.create cfg in
      let ok = ref true in
      for step = 0 to 300 do
        let cluster = gen_int 3 in
        let addr = 4 * gen_int 200 in
        let r =
          Vliw_arch.Interleaved_cache.access c ~now:(step * 30) ~cluster ~addr
            ~store:(gen_int 1 = 1) ()
        in
        let local = Vliw_arch.Config.cluster_of_addr cfg addr = cluster in
        (match r.Vliw_arch.Access.kind with
        | Vliw_arch.Access.Local_hit | Vliw_arch.Access.Local_miss ->
            if not local then ok := false
        | Vliw_arch.Access.Remote_hit | Vliw_arch.Access.Remote_miss ->
            if local then ok := false
        | Vliw_arch.Access.Combined -> ());
        if r.Vliw_arch.Access.ready_at < (step * 30) + 1 then ok := false
      done;
      !ok)

(* End-to-end determinism: compiling and simulating the same benchmark
   twice yields identical statistics. *)
let prop_simulation_deterministic =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:4 ~name:"simulation is deterministic"
       QCheck.(make Gen.(int_bound 2))
       (fun i ->
         let bench = List.nth Vliw_workloads.Mediabench.all i in
         let once () =
           let ctx = Vliw_experiments.Context.create () in
           let s =
             Vliw_experiments.Context.run ctx bench
               (Vliw_experiments.Context.interleaved `Ipbc)
               ~arch:
                 (Vliw_sim.Machine.Word_interleaved
                    { attraction_buffers = true })
               ()
           in
           ( Vliw_sim.Stats.total_cycles s,
             Vliw_sim.Stats.total_accesses s,
             Vliw_sim.Stats.local_hit_ratio s )
         in
         once () = once ()))

(* Batch composition: a batched run is the product of independent
   per-cell simulations — restricting a batch to any subset of its
   cells (here: a random subset, re-run as its own smaller batch) must
   reproduce the subset's statistics and traffic exactly.  State leaking
   across cells (a shared tag array, a stall clock indexed off the wrong
   cell) breaks this immediately. *)
let batch_fixture =
  lazy
    (let layout =
       Vliw_workloads.Layout.create cfg ~aligned:true
         ~run:Vliw_workloads.Layout.Profile_run ~seed:7
     in
     let profiler = Vliw_workloads.Profiling.profiler cfg layout in
     let loop =
       List.hd
         (Vliw_workloads.Benchspec.loops
            (Vliw_workloads.Mediabench.find "gsmdec"))
     in
     let c =
       Vliw_core.Pipeline.compile cfg
         ~target:(Vliw_core.Pipeline.Interleaved { heuristic = `Ipbc; chains = true })
         ~strategy:Vliw_core.Unroll_select.Selective ~profiler loop
     in
     let exec_layout =
       Vliw_workloads.Layout.create cfg ~aligned:true
         ~run:Vliw_workloads.Layout.Execution_run ~seed:7
     in
     let addr_trace =
       Vliw_sim.Executor.address_trace c
         ~addr_of:
           (Vliw_workloads.Layout.addr_fn exec_layout
              c.Vliw_core.Pipeline.loop.Loop.ddg)
     in
     (c, addr_trace))

let batch_points =
  let wi ab = (Vliw_sim.Machine.Word_interleaved { attraction_buffers = true }, ab) in
  [
    wi (Some 2); wi (Some 8); wi (Some 32); wi (Some 256); wi None;
    (Vliw_sim.Machine.Word_interleaved { attraction_buffers = false }, None);
    (Vliw_sim.Machine.Unified { slow = true }, None);
    (Vliw_sim.Machine.Multivliw, None);
  ]

let run_batch_points points =
  let c, addr_trace = Lazy.force batch_fixture in
  let machines = Vliw_sim.Machine.create_batch cfg points in
  let cells =
    Array.map
      (fun m -> { Vliw_sim.Executor.machine = m; attractable = None })
      machines
  in
  let stats = Vliw_sim.Executor.run_loop_batched cfg cells c ~addr_trace () in
  Array.to_list
    (Array.mapi
       (fun j s -> (s, Vliw_sim.Machine.traffic_summary machines.(j)))
       stats)

let prop_batch_composition =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:30 ~name:"batched sweep composes over subsets"
       QCheck.(make Gen.(int_bound 1_000_000))
       (fun seed ->
         let rng = Random.State.make [| seed |] in
         let subset =
           List.filter (fun _ -> Random.State.bool rng) batch_points
         in
         let subset = if subset = [] then [ List.hd batch_points ] else subset in
         let full = run_batch_points batch_points in
         let sub = run_batch_points subset in
         let of_full =
           List.filter_map
             (fun (p, r) -> if List.mem p subset then Some (p, r) else None)
             (List.combine batch_points full)
         in
         List.for_all2
           (fun (_, (s_full, t_full)) (s_sub, t_sub) ->
             Vliw_sim.Stats.equal s_full s_sub && t_full = t_sub)
           of_full sub))

let suite =
  suite
  @ [
      prop_msi_single_writer;
      prop_interleaved_locality_honest;
      prop_simulation_deterministic;
      prop_batch_composition;
    ]
