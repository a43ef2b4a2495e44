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
              ((Set_assoc.find t key >= 0) = List.mem key reference.(key mod sets))
        | 8 | 9 | 10 | 11 | 12 -> expect ((Set_assoc.use t key >= 0) = ref_lookup key)
        | _ ->
            expect
              (Set_assoc.fill t key = Option.value ~default:(-1) (ref_insert key))
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

(* [Config.validate] covers what a profile run needs: a presence model
   with at least one set of whole ways. *)
let profilable (c : Config.t) = Config.validate c = Ok ()

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
    associativity = min (n_blocks / n_clusters) (pow2 (gen_int 2));
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

(* ------------------------------------------------------ json printer *)

module Json = Vliw_report.Json

(* A random JSON value nested at most [budget] containers deep: strings
   over all 256 bytes, ints across the whole range, and finite floats
   drawn from raw bit patterns, small decimals and large integral values
   (the 1e15..1e17 band once printed as bare digits). *)
let rec gen_json rng ~budget =
  let int bound = Random.State.int rng bound in
  let str () = String.init (int 10) (fun _ -> Char.chr (int 256)) in
  let sign () = if Random.State.bool rng then 1.0 else -1.0 in
  let rec finite_bits () =
    let f = Int64.float_of_bits (Random.State.bits64 rng) in
    if Float.is_finite f then f else finite_bits ()
  in
  match int (if budget > 0 then 9 else 7) with
  | 0 -> Json.Null
  | 1 -> Json.Bool (Random.State.bool rng)
  | 2 -> (
      match int 4 with
      | 0 -> Json.Int max_int
      | 1 -> Json.Int min_int
      | _ -> Json.Int (Random.State.bits rng - (1 lsl 29)))
  | 3 -> Json.String (str ())
  | 4 -> Json.Float (finite_bits ())
  | 5 -> Json.Float (sign () *. Float.round (1e14 +. Random.State.float rng 1e18))
  | 6 -> Json.Float (sign () *. Random.State.float rng 1000.0)
  | 7 -> Json.List (List.init (int 4) (fun _ -> gen_json rng ~budget:(budget - 1)))
  | _ ->
      Json.Obj
        (List.init (int 4) (fun _ -> (str (), gen_json rng ~budget:(budget - 1))))

(* Wrap a random value in [k] containers, [k] up to the parser's depth
   bound, so the deepest legal nesting is exercised too. *)
let gen_deep_json rng ~budget =
  let k = Random.State.int rng (budget + 1) in
  let rec wrap k v =
    if k = 0 then v
    else if Random.State.bool rng then wrap (k - 1) (Json.List [ v ])
    else wrap (k - 1) (Json.Obj [ ("k", v) ])
  in
  wrap k (gen_json rng ~budget:(budget - k))

let prop_json_roundtrip =
  make_test ~name:"json printer round-trips: compact, document and Fixed forms"
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let v = gen_deep_json rng ~budget:Json.max_depth in
      (* A top-level object whose fields include lists, empty ones too,
         as the [--json] reports print them. *)
      let doc =
        Json.Obj
          [
            ("value", gen_deep_json rng ~budget:(Json.max_depth - 1));
            ("empty", Json.List []);
            ( "rows",
              Json.List
                (List.init 3 (fun _ ->
                     gen_deep_json rng ~budget:(Json.max_depth - 2))) );
          ]
      in
      Json.parse (Json.to_string v) = Ok v
      && Json.parse (Json.to_string doc) = Ok doc
      && Json.parse (Json.document doc) = Json.parse (Json.to_string doc)
      && Json.to_string (Json.Fixed (3, 17.5)) = "17.500"
      && Json.to_string (Json.Fixed (1, Float.infinity)) = "null")

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
    prop_json_roundtrip;
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
      let r = Vliw_arch.Access.scratch () in
      let ok = ref true in
      for step = 0 to 300 do
        let cluster = gen_int 3 in
        let block = gen_int 9 in
        let store = gen_int 1 = 1 in
        Vliw_arch.Coherent_cache.access c r ~now:(step * 20) ~cluster ~block
          ~store;
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
      let r = Vliw_arch.Access.scratch () in
      let ok = ref true in
      for step = 0 to 300 do
        let cluster = gen_int 3 in
        let addr = 4 * gen_int 200 in
        let dec = Config.decoder cfg in
        Vliw_arch.Interleaved_cache.access c r ~attract:true ~now:(step * 30)
          ~cluster ~block:(Config.block_of dec addr)
          ~home:(Config.home_of dec addr) ~store:(gen_int 1 = 1);
        let local = Config.home_of dec addr = cluster in
        (match r.Vliw_arch.Access.s_kind with
        | Vliw_arch.Access.Local_hit | Vliw_arch.Access.Local_miss ->
            if not local then ok := false
        | Vliw_arch.Access.Remote_hit | Vliw_arch.Access.Remote_miss ->
            if local then ok := false
        | Vliw_arch.Access.Combined -> ());
        if r.Vliw_arch.Access.s_ready_at < (step * 30) + 1 then ok := false
      done;
      !ok)

(* The flat, shift-decoded cache models against the record-based
   implementations they replaced (test/cache_spec.ml), over random
   geometries and access streams: power-of-two clusters, interleaving,
   blocks and module sets; 1/2/4 ways; attraction buffers off or on with
   power-of-two or odd set counts; stores, same-cycle bursts that land
   on in-flight fills, issue times that step back as the executor's
   iteration-major order does, and [end_of_loop] between loops.  Every
   access's classification and ready cycle, every victim the tag array
   reports, the occupancies, the traffic counters and the MSI states
   must agree. *)
let prop_caches_match_spec =
  make_test ~name:"flat caches match the record spec" (fun seed ->
      let rng = Random.State.make [| seed |] in
      let gen_int bound =
        QCheck.Gen.generate1 ~rand:rng (QCheck.Gen.int_bound bound)
      in
      let pick l = List.nth l (gen_int (List.length l - 1)) in
      let ok = ref true in
      let expect b = if not b then ok := false in
      (* The tag array alone, over odd set counts too. *)
      let sets = 1 + gen_int 7 and ways = pick [ 1; 2; 4 ] in
      let flat = Set_assoc.create ~sets ~ways in
      let spec = Cache_spec.Set_assoc.create ~sets ~ways in
      for _ = 1 to 200 do
        let key = gen_int ((3 * sets * ways) - 1) in
        match gen_int 9 with
        | 0 ->
            Set_assoc.flush flat;
            Cache_spec.Set_assoc.flush spec
        | 1 ->
            Set_assoc.invalidate flat key;
            Cache_spec.Set_assoc.invalidate spec key
        | 2 ->
            expect
              (Set_assoc.occupancy flat = Cache_spec.Set_assoc.occupancy spec)
        | 3 ->
            expect
              ((Set_assoc.find flat key >= 0)
              = Cache_spec.Set_assoc.contains spec key)
        | 4 | 5 ->
            expect
              ((Set_assoc.use flat key >= 0) = Cache_spec.Set_assoc.lookup spec key)
        | _ ->
            expect
              (Set_assoc.fill flat key
              = Option.value ~default:(-1) (Cache_spec.Set_assoc.insert spec key))
      done;
      (* The three cache models on one random machine. *)
      let n_clusters = pick [ 1; 2; 4; 8 ] in
      let interleave = pick [ 1; 2; 4; 8 ] in
      let block_size = n_clusters * interleave * pick [ 1; 2; 4 ] in
      let associativity = pick [ 1; 2; 4 ] in
      let ab_associativity = pick [ 1; 2; 4 ] in
      let cfg =
        {
          cfg with
          Config.n_clusters;
          interleaving_factor = interleave;
          block_size;
          associativity;
          cache_size = n_clusters * block_size * associativity * pick [ 1; 2; 4; 8 ];
          ab_associativity;
          ab_entries = ab_associativity * pick [ 1; 2; 3; 4; 6 ];
        }
      in
      expect (Config.validate cfg = Ok ());
      let with_ab = Random.State.bool rng and slow = Random.State.bool rng in
      let module M = Vliw_sim.Machine in
      let module S = Cache_spec in
      let wi = M.create cfg (M.Word_interleaved { attraction_buffers = with_ab }) in
      let un = M.create cfg (M.Unified { slow }) in
      let co = M.create cfg M.Multivliw in
      let s_wi = S.Interleaved_cache.create ~with_ab cfg in
      let s_un = S.Unified_cache.create ~slow cfg in
      let s_co = S.Coherent_cache.create cfg in
      let r = Vliw_arch.Access.scratch () and q = Vliw_arch.Access.scratch () in
      let same () =
        expect
          (r.Vliw_arch.Access.s_kind = q.Vliw_arch.Access.s_kind
          && r.Vliw_arch.Access.s_ready_at = q.Vliw_arch.Access.s_ready_at)
      in
      let span = 3 * cfg.Config.cache_size in
      let now = ref 0 and addr = ref 0 in
      for _ = 1 to 400 do
        (match gen_int 49 with
        | 0 ->
            M.end_of_loop wi;
            M.end_of_loop un;
            M.end_of_loop co;
            S.Interleaved_cache.end_of_loop s_wi;
            S.Unified_cache.end_of_loop s_un;
            S.Coherent_cache.end_of_loop s_co
        | 1 | 2 | 3 | 4 | 5 | 6 | 7 | 8 | 9 | 10 ->
            (* a burst: another word of the last block, same cycle *)
            addr := (!addr / block_size * block_size) + gen_int (block_size - 1)
        | _ ->
            (* The executor issues iteration-major, so a late stage of
               one iteration comes before an early stage of the next:
               one step in four goes back in time. *)
            let lat = cfg.Config.lat_remote_miss in
            (now :=
               if gen_int 3 = 0 then max 0 (!now - gen_int (2 * lat))
               else !now + gen_int (lat + 2));
            addr := gen_int (span - 1));
        let cluster = gen_int (n_clusters - 1) in
        let store = gen_int 3 = 0 and attract = gen_int 3 > 0 in
        let now = !now and addr = !addr in
        M.access wi r ~attract ~now ~cluster ~addr ~store;
        S.Interleaved_cache.access s_wi q ~attract ~now ~cluster ~addr ~store;
        same ();
        M.access un r ~attract ~now ~cluster ~addr ~store;
        S.Unified_cache.access s_un q ~now ~addr;
        same ();
        M.access co r ~attract ~now ~cluster ~addr ~store;
        S.Coherent_cache.access s_co q ~now ~cluster ~addr ~store;
        same ();
        (match M.state wi with
        | M.Interleaved_state c ->
            for cl = 0 to n_clusters - 1 do
              expect
                (Vliw_arch.Interleaved_cache.ab_occupancy c cl
                = S.Interleaved_cache.ab_occupancy s_wi cl)
            done
        | _ -> expect false);
        expect (M.traffic_summary wi = S.interleaved_summary s_wi);
        expect (M.traffic_summary co = S.coherent_summary s_co);
        match M.state co with
        | M.Coherent_state c ->
            let block = addr / block_size in
            for cl = 0 to n_clusters - 1 do
              expect
                (Vliw_arch.Coherent_cache.state c ~cluster:cl ~block
                = S.Coherent_cache.state s_co ~cluster:cl ~block)
            done
        | _ -> expect false
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

(* ------------------------------------------------- oracle search spec *)

module Cpsolver = Vliw_analysis.Cpsolver
module Oracle = Vliw_analysis.Oracle

(* The exact oracle against the list-trail solver and closure-trailed
   encoder of test/oracle_spec.ml, on random loops and machines: an II
   from the certified floor to the heuristic II, budgets from 1 to
   30,000 so that some probes exhaust, memory chains split or not.  The
   two must visit the same tree: same result, same decision and
   conflict counts, same witness schedule. *)
let prop_oracle_matches_spec =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:200 ~name:"oracle search matches the spec"
       QCheck.(make Gen.(int_bound 1_000_000))
       (fun seed ->
         let rng = Random.State.make [| seed |] in
         let gen_int bound =
           QCheck.Gen.generate1 ~rand:rng (QCheck.Gen.int_bound bound)
         in
         let ddg = Test_oracle.build_random_ddg rng in
         let cfg =
           {
             cfg with
             Config.n_clusters = 1 lsl gen_int 2;
             n_reg_buses = 1 + gen_int 3;
             bus_occupancy = 1 + gen_int 1;
           }
         in
         let latency = Ddg.default_latency ddg in
         match Engine.schedule cfg ddg ~latency () with
         | None -> true
         | Some sch ->
             let hii = sch.Schedule.ii in
             let floor =
               min hii
                 (max (Resources.res_mii cfg ddg)
                    (Test_oracle.independent_floor ddg ~latency))
             in
             let ii = max 1 (floor + gen_int (hii - floor)) in
             (* log-uniform, so that about a quarter of the probes exhaust *)
             let budget =
               1 + gen_int (List.nth [ 9; 99; 999; 29_999 ] (gen_int 3))
             in
             let allow_cross_cluster_mem = gen_int 1 = 1 in
             let d, st =
               Oracle.decide cfg ddg ~latency ~allow_cross_cluster_mem ~ii
                 ~budget ()
             in
             let d', st' =
               Oracle_spec.decide cfg ddg ~latency ~allow_cross_cluster_mem ~ii
                 ~budget ()
             in
             d = d'
             && st.Cpsolver.decisions = st'.Oracle_spec.Solver.decisions
             && st.Cpsolver.conflicts = st'.Oracle_spec.Solver.conflicts))

(* One random CSP posted to both solvers through the same watcher:
   all-different over a subset of the variables, forbidden value pairs,
   and a trailed capacity counter on the variables that take a value
   at or below [heavy], with a pruning rule that depends on the count.
   [bump d] adds [d] to the counter and answers the new count. *)
type csp = {
  sizes : int array;
  distinct : bool array;
  forbidden : (int * int * int * int) list;  (** v = x excludes w = y *)
  heavy : int;
  capacity : int;
  order : int array;
  bounds : int array option;  (** value bound per variable *)
  csp_budget : int;
}

let gen_csp rng =
  let gen_int bound = QCheck.Gen.generate1 ~rand:rng (QCheck.Gen.int_bound bound) in
  let nv = 2 + gen_int 8 in
  let sizes = Array.init nv (fun _ -> 1 + gen_int 5) in
  let forbidden =
    List.init (gen_int 8) (fun _ ->
        let v = gen_int (nv - 1) and w = gen_int (nv - 1) in
        (v, gen_int (sizes.(v) - 1), w, gen_int (sizes.(w) - 1)))
    |> List.filter (fun (v, _, w, _) -> v <> w)
  in
  let order = Array.init nv Fun.id in
  for i = nv - 1 downto 1 do
    let j = gen_int i in
    let t = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- t
  done;
  {
    sizes;
    distinct = Array.init nv (fun _ -> gen_int 2 = 0);
    forbidden;
    heavy = gen_int 3;
    capacity = gen_int nv;
    order;
    bounds =
      (if gen_int 1 = 0 then None
       else Some (Array.map (fun sz -> 1 + gen_int (sz - 1)) sizes));
    csp_budget = 1 + gen_int (List.nth [ 4; 40; 400 ] (gen_int 2));
  }

let csp_watcher p ~value ~remove ~bump ~conflict vars v =
  let x = value v in
  if p.distinct.(v) then
    Array.iteri
      (fun w wv -> if w <> v && p.distinct.(w) then remove wv x)
      vars;
  List.iter
    (fun (a, xa, b, xb) ->
      if a = v && xa = x then remove vars.(b) xb;
      if b = v && xb = x then remove vars.(a) xa)
    p.forbidden;
  if x <= p.heavy then begin
    let count = bump 1 in
    if count > p.capacity then conflict ();
    (* The k-th heavy variable handled prunes value k from its
       successor, so the result depends on the order in which
       propagation handles events. *)
    remove vars.((v + 1) mod Array.length vars) count
  end

let solve_csp_new p =
  let module S = Cpsolver in
  let s = S.create () in
  let vars = Array.map (fun size -> S.new_var s ~size) p.sizes in
  let count = S.new_cells s 1 in
  let bump d =
    S.set s count (S.get s count + d);
    S.get s count
  in
  S.on_assign s
    (csp_watcher p ~value:(S.value s) ~remove:(S.remove s) ~bump
       ~conflict:(fun () -> raise S.Conflict)
       vars);
  let values = Option.map (fun b v -> b.(v)) p.bounds in
  let r, st =
    S.solve s ?values ~order:p.order ~max_decisions:p.csp_budget
      ~max_conflicts:p.csp_budget ()
  in
  ( (match r with S.Sat -> 0 | S.Unsat -> 1 | S.Budget_exhausted -> 2),
    st.S.decisions,
    st.S.conflicts,
    if r = S.Sat then Array.map (S.value s) vars else [||] )

let solve_csp_spec p =
  let module S = Oracle_spec.Solver in
  let s = S.create () in
  let vars = Array.map (fun size -> S.new_var s ~size) p.sizes in
  let count = ref 0 in
  let bump d =
    count := !count + d;
    S.post_undo s (fun () -> count := !count - d);
    !count
  in
  S.on_assign s
    (csp_watcher p ~value:(S.value s) ~remove:(S.remove s) ~bump
       ~conflict:(fun () -> raise S.Conflict)
       vars);
  let values = Option.map (fun b v -> List.init b.(v) Fun.id) p.bounds in
  let r, st =
    S.solve s ?values ~order:p.order ~max_decisions:p.csp_budget
      ~max_conflicts:p.csp_budget ()
  in
  ( (match r with S.Sat -> 0 | S.Unsat -> 1 | S.Budget_exhausted -> 2),
    st.S.decisions,
    st.S.conflicts,
    if r = S.Sat then Array.map (S.value s) vars else [||] )

let prop_solver_matches_spec =
  make_test ~name:"solver search matches the spec" (fun seed ->
      let p = gen_csp (Random.State.make [| seed |]) in
      solve_csp_new p = solve_csp_spec p)

let suite =
  suite
  @ [
      prop_oracle_matches_spec;
      prop_solver_matches_spec;
      prop_msi_single_writer;
      prop_interleaved_locality_honest;
      prop_caches_match_spec;
      prop_simulation_deterministic;
      prop_batch_composition;
    ]
