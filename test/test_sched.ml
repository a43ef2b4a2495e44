(* Unit tests for the modulo-scheduling engine: resource MII, the
   reservation table, the SMS ordering and the scheduler itself. *)

open Vliw_ir
module Config = Vliw_arch.Config
module Engine = Vliw_sched.Engine
module Mrt = Vliw_sched.Mrt
module Ordering = Vliw_sched.Ordering
module Resources = Vliw_sched.Resources
module Schedule = Vliw_sched.Schedule

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool
let cfg = Config.default

let mem ?(stride = 4) symbol =
  Mem_access.make ~symbol ~stride ~granularity:4 ()

(* A loop with 8 independent load->add->store streams: enough work to
   exercise every cluster. *)
let wide_loop ?(streams = 8) () =
  let b = Builder.create () in
  for i = 0 to streams - 1 do
    let l =
      Builder.add b
        ~dests:[ Builder.fresh_reg b ]
        ~mem:(mem (Printf.sprintf "a%d" i))
        Opcode.Load
    in
    let c =
      Builder.add b ~dests:[ Builder.fresh_reg b ] ~srcs:[] Opcode.Int_alu
    in
    let s =
      Builder.add b ~srcs:[]
        ~mem:(mem (Printf.sprintf "b%d" i))
        Opcode.Store
    in
    Builder.flow b l c;
    Builder.flow b c s
  done;
  Builder.build b

let chain_loop () =
  (* load -> add -> store with a loop-carried memory dependence. *)
  let b = Builder.create () in
  let l = Builder.add b ~dests:[ 0 ] ~mem:(mem "x") Opcode.Load in
  let c = Builder.add b ~dests:[ 1 ] ~srcs:[ 0 ] Opcode.Int_alu in
  let s = Builder.add b ~srcs:[ 1 ] ~mem:(mem "x") Opcode.Store in
  Builder.flow b l c;
  Builder.flow b c s;
  Builder.dep b ~kind:Edge.Mem_flow ~distance:1 s l;
  Builder.build b

let default_latency g i = Ddg.default_latency g i

(* ---------------------------------------------------------- resources *)

let test_res_mii () =
  let g = wide_loop () in
  (* 8 loads + 8 stores on 4 memory units -> ResMII 4. *)
  check ci "mem-bound" 4 (Resources.res_mii cfg g);
  let g2 = wide_loop ~streams:2 () in
  check ci "small loop" 1 (Resources.res_mii cfg g2)

let test_mii_combines () =
  let g = chain_loop () in
  let latency = default_latency g in
  check ci "recurrence dominates" 3 (Resources.mii cfg g ~latency)

(* ---------------------------------------------------------------- mrt *)

let test_mrt_fu_capacity () =
  let mrt = Mrt.create cfg ~ii:2 in
  check cb "free initially" true
    (Mrt.fu_free mrt ~cluster:0 ~fu:Opcode.Mem_fu ~cycle:0);
  Mrt.reserve_fu mrt ~cluster:0 ~fu:Opcode.Mem_fu ~cycle:0;
  check cb "one mem unit per cluster" false
    (Mrt.fu_free mrt ~cluster:0 ~fu:Opcode.Mem_fu ~cycle:0);
  check cb "same unit at the wrapped cycle" false
    (Mrt.fu_free mrt ~cluster:0 ~fu:Opcode.Mem_fu ~cycle:2);
  check cb "other cycle free" true
    (Mrt.fu_free mrt ~cluster:0 ~fu:Opcode.Mem_fu ~cycle:1);
  check cb "other cluster free" true
    (Mrt.fu_free mrt ~cluster:1 ~fu:Opcode.Mem_fu ~cycle:0)

let test_mrt_issue_width () =
  let mrt = Mrt.create cfg ~ii:1 in
  for _ = 1 to cfg.Config.issue_width_per_cluster do
    Mrt.reserve_issue mrt ~cluster:0 ~cycle:0
  done;
  check cb "issue width exhausted" false (Mrt.issue_free mrt ~cluster:0 ~cycle:0);
  check cb "fu blocked by issue" false
    (Mrt.fu_free mrt ~cluster:0 ~fu:Opcode.Int_fu ~cycle:0)

let test_mrt_bus_occupancy () =
  let mrt = Mrt.create cfg ~ii:4 in
  (* 4 buses, each transfer holds 2 cycles: cycles 0-1 take one bus each. *)
  for _ = 1 to cfg.Config.n_reg_buses do
    Mrt.reserve_reg_bus mrt ~cycle:0
  done;
  check cb "cycle 0 saturated" false (Mrt.reg_bus_free mrt ~cycle:0);
  (* A transfer at cycle 1 would overlap cycle 1 (used 4x) - blocked. *)
  check cb "overlap blocked" false (Mrt.reg_bus_free mrt ~cycle:1);
  check cb "cycle 2 free" true (Mrt.reg_bus_free mrt ~cycle:2)

let test_mrt_bus_wrap () =
  (* II=1: a 2-cycle transfer charges the single slot twice. *)
  let mrt = Mrt.create cfg ~ii:1 in
  Mrt.reserve_reg_bus mrt ~cycle:0;
  Mrt.reserve_reg_bus mrt ~cycle:0;
  check cb "two transfers fill four bus-slots" false
    (Mrt.reg_bus_free mrt ~cycle:0)

let test_mrt_bus_scratch_reuse () =
  (* Interleaved probes at different cycles must not corrupt each
     other's accounting (a probe only reads the table), and wrap-around
     charging holds when a window covers every slot. *)
  let mrt = Mrt.create cfg ~ii:2 in
  (* Occupancy 2 at II=2: every transfer covers both slots, regardless
     of its start cycle. *)
  for k = 1 to cfg.Config.n_reg_buses do
    check cb "probe cycle 0 before reserve" true (Mrt.reg_bus_free mrt ~cycle:0);
    check cb "probe cycle 1 before reserve" true (Mrt.reg_bus_free mrt ~cycle:1);
    Mrt.reserve_reg_bus mrt ~cycle:(k mod 2)
  done;
  check cb "slot 0 saturated" false (Mrt.reg_bus_free mrt ~cycle:0);
  check cb "slot 1 saturated" false (Mrt.reg_bus_free mrt ~cycle:1);
  (* II=3: a transfer at cycle 2 wraps into slot 0; after n_reg_buses of
     them, slots 0 and 2 hold 4 transfers each and every start cycle's
     window hits one of them. *)
  let m3 = Mrt.create cfg ~ii:3 in
  for _ = 1 to cfg.Config.n_reg_buses do
    check cb "wrapped reserve fits" true (Mrt.reg_bus_free m3 ~cycle:2);
    Mrt.reserve_reg_bus m3 ~cycle:2
  done;
  check cb "window 0-1 hits slot 0" false (Mrt.reg_bus_free m3 ~cycle:0);
  check cb "window 1-2 hits slot 2" false (Mrt.reg_bus_free m3 ~cycle:1);
  check cb "window 2-0 hits both" false (Mrt.reg_bus_free m3 ~cycle:2)

let test_mrt_snapshot () =
  let mrt = Mrt.create cfg ~ii:2 in
  let snap = Mrt.snapshot mrt in
  Mrt.reserve_fu mrt ~cluster:0 ~fu:Opcode.Int_fu ~cycle:0;
  Mrt.reserve_reg_bus mrt ~cycle:0;
  Mrt.restore mrt snap;
  check cb "fu restored" true
    (Mrt.fu_free mrt ~cluster:0 ~fu:Opcode.Int_fu ~cycle:0);
  check cb "bus restored" true (Mrt.reg_bus_free mrt ~cycle:0);
  check ci "load restored" 0 (Mrt.cluster_load mrt 0)

let test_mrt_restore_wrapped_nested () =
  (* II=1 < occupancy 2: every transfer charges the single slot twice,
     so two transfers saturate the 4 buses. *)
  let mrt = Mrt.create cfg ~ii:1 in
  let outer = Mrt.snapshot mrt in
  Mrt.reserve_reg_bus mrt ~cycle:0;
  Mrt.reserve_issue mrt ~cluster:1 ~cycle:0;
  let inner = Mrt.snapshot mrt in
  Mrt.reserve_reg_bus mrt ~cycle:3;
  Mrt.reserve_fu mrt ~cluster:1 ~fu:Opcode.Int_fu ~cycle:0;
  check cb "two wrapped transfers saturate" false (Mrt.reg_bus_free mrt ~cycle:0);
  Mrt.restore mrt inner;
  check cb "inner restore frees one wrapped transfer" true
    (Mrt.reg_bus_free mrt ~cycle:0);
  check ci "inner restore keeps the outer issue slot" 1 (Mrt.cluster_load mrt 1);
  check cb "fu freed" true (Mrt.fu_free mrt ~cluster:1 ~fu:Opcode.Int_fu ~cycle:0);
  (* The inner mark stays valid for another probe and rollback. *)
  Mrt.reserve_reg_bus mrt ~cycle:1;
  check cb "saturated again" false (Mrt.reg_bus_free mrt ~cycle:0);
  Mrt.restore mrt inner;
  check cb "rolled back again" true (Mrt.reg_bus_free mrt ~cycle:0);
  Mrt.restore mrt outer;
  check ci "outer restore clears the load" 0 (Mrt.cluster_load mrt 1);
  Mrt.reserve_reg_bus mrt ~cycle:0;
  check cb "outer restore frees both wrapped charges" true
    (Mrt.reg_bus_free mrt ~cycle:0);
  Mrt.restore mrt outer;
  Alcotest.check_raises "a mark rolled past is dead"
    (Invalid_argument "Mrt.restore: mark beyond the journal") (fun () ->
      Mrt.restore mrt inner)

(* ------------------------------------------------------------ ordering *)

let is_permutation g order =
  List.sort compare order = List.init (Ddg.n_ops g) (fun i -> i)

let test_ordering_permutation () =
  List.iter
    (fun g ->
      let latency = default_latency g in
      let ii = Resources.mii cfg g ~latency in
      check cb "permutation" true
        (is_permutation g (Ordering.order g ~latency ~ii)))
    [ wide_loop (); chain_loop () ]

let test_ordering_recurrence_first () =
  let b = Builder.create () in
  (* A feeder chain into a recurrence: the recurrence must come first. *)
  let f = Builder.add b Opcode.Int_alu in
  let r1 = Builder.add b Opcode.Int_alu in
  let r2 = Builder.add b Opcode.Int_mul in
  Builder.flow b f r1;
  Builder.flow b r1 r2;
  Builder.flow b ~distance:1 r2 r1;
  let g = Builder.build b in
  let order = Ordering.order g ~latency:(default_latency g) ~ii:3 in
  check cb "recurrence node ordered before feeder" true
    (match order with first :: _ -> first = r1 || first = r2 | [] -> false)

let test_ordering_neighbour_property () =
  (* SMS property: when a node is ordered, the already-ordered nodes do
     not contain both its predecessors and its successors - except for
     at most one node per recurrence. *)
  let g = chain_loop () in
  let latency = default_latency g in
  let order = Ordering.order g ~latency ~ii:3 in
  let seen = Array.make (Ddg.n_ops g) false in
  let violations = ref 0 in
  List.iter
    (fun v ->
      let has_pred =
        List.exists (fun (e : Edge.t) -> seen.(e.Edge.src)) (Ddg.preds g v)
      and has_succ =
        List.exists (fun (e : Edge.t) -> seen.(e.Edge.dst)) (Ddg.succs g v)
      in
      if has_pred && has_succ then incr violations;
      seen.(v) <- true)
    order;
  check cb "at most one closing node per recurrence" true
    (!violations <= List.length (Scc.recurrences g))

let test_depths () =
  let g = chain_loop () in
  let estart, height = Ordering.depths g ~latency:(default_latency g) ~ii:3 in
  check ci "source starts at zero" 0 estart.(0);
  check cb "consumer later than producer" true (estart.(1) >= 1);
  check cb "producer has height" true (height.(0) >= height.(2))

(* -------------------------------------------------------------- engine *)

let schedule ?hooks ?allow_cross_cluster_mem g =
  Engine.schedule cfg g ~latency:(default_latency g) ?hooks
    ?allow_cross_cluster_mem ()

let test_engine_schedules_and_validates () =
  List.iter
    (fun g ->
      match schedule g with
      | None -> Alcotest.fail "scheduling failed"
      | Some s -> (
          match
            Schedule.validate cfg g ~latency:(default_latency g) s
          with
          | Ok () -> ()
          | Error e -> Alcotest.fail e))
    [ wide_loop (); chain_loop (); wide_loop ~streams:3 () ]

let test_engine_achieves_mii () =
  let g = wide_loop () in
  match schedule g with
  | None -> Alcotest.fail "scheduling failed"
  | Some s ->
      check ci "II equals ResMII for independent streams" 4
        s.Schedule.ii

let test_engine_forced_cluster () =
  let g = wide_loop ~streams:4 () in
  let hooks =
    { Engine.default_hooks with
      Engine.choice =
        (fun v ->
          if Operation.is_memory (Ddg.op g v) then Engine.Forced 2
          else Engine.Free);
    }
  in
  match schedule ~hooks g with
  | None -> Alcotest.fail "scheduling failed"
  | Some s ->
      Array.iteri
        (fun i c ->
          if Operation.is_memory (Ddg.op g i) then
            check ci (Printf.sprintf "op %d forced" i) 2 c)
        s.Schedule.cluster;
      (* All 8 memory ops on one memory unit: II at least 8. *)
      check cb "II inflated by forcing" true (s.Schedule.ii >= 8)

let test_engine_inserts_copies () =
  (* Producer forced to cluster 0, consumer store to cluster 3. *)
  let b = Builder.create () in
  let l = Builder.add b ~dests:[ 0 ] ~mem:(mem "a") Opcode.Load in
  let s = Builder.add b ~srcs:[ 0 ] ~mem:(mem "b") Opcode.Store in
  Builder.flow b l s;
  let g = Builder.build b in
  let hooks =
    { Engine.default_hooks with
      Engine.choice =
        (fun v -> if v = l then Engine.Forced 0 else Engine.Forced 3);
    }
  in
  match schedule ~hooks ~allow_cross_cluster_mem:true g with
  | None -> Alcotest.fail "scheduling failed"
  | Some sc ->
      check ci "one copy inserted" 1 (Schedule.n_copies sc);
      (match sc.Schedule.copies with
      | [ cp ] ->
          check ci "from producer cluster" 0 cp.Schedule.from_cluster;
          check ci "to consumer cluster" 3 cp.Schedule.to_cluster;
          check cb "after the load completes" true
            (cp.Schedule.start >= sc.Schedule.start.(l) + 1)
      | _ -> Alcotest.fail "expected exactly one copy");
      (match Schedule.validate cfg g ~latency:(default_latency g) sc with
      | Ok () -> ()
      | Error e -> Alcotest.fail e)

let test_engine_memory_same_cluster () =
  let g = chain_loop () in
  match schedule g with
  | None -> Alcotest.fail "scheduling failed"
  | Some s ->
      check ci "memory-dependent ops share a cluster"
        s.Schedule.cluster.(0) s.Schedule.cluster.(2)

let test_validate_rejects_tampering () =
  let g = chain_loop () in
  match schedule g with
  | None -> Alcotest.fail "scheduling failed"
  | Some s ->
      let broken = { s with Schedule.start = Array.copy s.Schedule.start } in
      broken.Schedule.start.(2) <- 0;
      (* store before its producer *)
      check cb "validator catches timing violations" true
        (Result.is_error
           (Schedule.validate cfg g ~latency:(default_latency g) broken))

let test_schedule_metrics () =
  let g = wide_loop () in
  match schedule g with
  | None -> Alcotest.fail "scheduling failed"
  | Some s ->
      check cb "stage count positive" true (Schedule.stage_count s >= 1);
      let wb = Schedule.workload_balance s in
      check cb "balance in range" true (wb >= 0.25 && wb <= 1.0);
      let total =
        List.fold_left
          (fun acc c -> acc + Schedule.ops_in_cluster s c)
          0 [ 0; 1; 2; 3 ]
      in
      check ci "ops partitioned over clusters" (Ddg.n_ops g) total

(* The 16-node graph (found by random search) on which the greedy
   single-pass scheduler wedges at *every* II: the node closing one of
   the recurrences always finds an empty zero-distance window.  The
   engine must recover — by hoisting the wedged node or, at worst, by
   the sequential fallback — and still produce a valid schedule. *)
let wedge_graph () =
  let b = Builder.create () in
  let mem' sym = Mem_access.make ~symbol:sym ~stride:4 ~granularity:4 () in
  let n0 = Builder.add b ~dests:[ 0 ] Opcode.Int_mul in
  let n1 = Builder.add b ~srcs:[ 0 ] ~mem:(mem' "s2") Opcode.Store in
  let n2 = Builder.add b ~dests:[ 1 ] Opcode.Int_alu in
  let n3 = Builder.add b ~srcs:[ 0 ] ~mem:(mem' "s2") Opcode.Store in
  let n4 = Builder.add b ~srcs:[ 0 ] ~mem:(mem' "s1") Opcode.Store in
  let n5 = Builder.add b ~dests:[ 2 ] Opcode.Fp_alu in
  let n6 = Builder.add b ~srcs:[ 0 ] ~mem:(mem' "s1") Opcode.Store in
  let n7 = Builder.add b ~dests:[ 3 ] Opcode.Int_mul in
  let n8 = Builder.add b ~dests:[ 4 ] Opcode.Int_alu in
  let n9 = Builder.add b ~dests:[ 5 ] ~mem:(mem' "s2") Opcode.Load in
  let n10 = Builder.add b ~dests:[ 6 ] Opcode.Int_alu in
  let n11 = Builder.add b ~srcs:[ 0 ] ~mem:(mem' "s0") Opcode.Store in
  let n12 = Builder.add b ~dests:[ 7 ] Opcode.Fp_alu in
  let n13 = Builder.add b ~dests:[ 8 ] Opcode.Int_mul in
  let n14 = Builder.add b ~dests:[ 9 ] Opcode.Int_mul in
  let n15 = Builder.add b ~dests:[ 10 ] Opcode.Fp_alu in
  Builder.flow b n0 n1;
  Builder.flow b n1 n2;
  Builder.flow b n1 n3;
  Builder.flow b n2 n4;
  Builder.flow b ~distance:2 n4 n1;
  Builder.flow b n2 n5;
  Builder.flow b ~distance:2 n5 n3;
  Builder.flow b n0 n6;
  Builder.flow b n3 n7;
  Builder.flow b n5 n8;
  Builder.flow b n5 n9;
  Builder.flow b n7 n10;
  Builder.flow b n4 n11;
  Builder.flow b ~distance:2 n11 n5;
  Builder.flow b n4 n12;
  Builder.flow b n10 n13;
  Builder.flow b ~distance:2 n13 n11;
  Builder.flow b n10 n14;
  Builder.flow b ~distance:2 n14 n5;
  Builder.dep b ~kind:Edge.Reg_anti n7 n15;
  Builder.build b

let test_wedge_recovery () =
  let g = wedge_graph () in
  let latency = default_latency g in
  match Engine.schedule cfg g ~latency () with
  | None -> Alcotest.fail "engine must recover from the wedge"
  | Some s -> (
      match Schedule.validate cfg g ~latency s with
      | Ok () -> ()
      | Error e -> Alcotest.fail e)

let test_infeasible_loop_raises () =
  (* A zero-distance positive cycle cannot be scheduled at any II. *)
  let b = Builder.create () in
  let n0 = Builder.add b Opcode.Int_alu in
  let n1 = Builder.add b Opcode.Int_alu in
  Builder.flow b n0 n1;
  Builder.flow b n1 n0;
  let g = Builder.build b in
  Alcotest.check_raises "infeasible loops raise" Mii.Infeasible (fun () ->
      ignore (Engine.schedule cfg g ~latency:(default_latency g) ()))

let test_kernel_dump () =
  let g = chain_loop () in
  match schedule g with
  | None -> Alcotest.fail "scheduling failed"
  | Some s ->
      let text = Format.asprintf "%a" (Schedule.pp_kernel g) s in
      check cb "mentions the II" true
        (String.length text > 0
        && String.sub text 0 7 = "kernel ");
      (* Every operation appears exactly once. *)
      List.iter
        (fun needle ->
          let occurrences =
            let n = ref 0 in
            for i = 0 to String.length text - String.length needle do
              if String.sub text i (String.length needle) = needle then incr n
            done;
            !n
          in
          check ci (needle ^ " appears once") 1 occurrences)
        [ "load.n0"; "add.n1"; "store.n2" ]

let test_dot_export () =
  let g = chain_loop () in
  let text = Format.asprintf "%a" Vliw_ir.Dot.ddg g in
  check cb "digraph wrapper" true
    (String.sub text 0 11 = "digraph ddg");
  check cb "memory node is a box" true
    (let needle = "shape=box" in
     let rec find i =
       i + String.length needle <= String.length text
       && (String.sub text i (String.length needle) = needle || find (i + 1))
     in
     find 0)

let suite =
  [
    ("resources: res_mii", `Quick, test_res_mii);
    ("resources: mii combines rec and res", `Quick, test_mii_combines);
    ("mrt: fu capacity", `Quick, test_mrt_fu_capacity);
    ("mrt: issue width", `Quick, test_mrt_issue_width);
    ("mrt: bus occupancy", `Quick, test_mrt_bus_occupancy);
    ("mrt: bus wrap at small II", `Quick, test_mrt_bus_wrap);
    ("mrt: bus scratch reuse keeps wrap accounting", `Quick,
     test_mrt_bus_scratch_reuse);
    ("mrt: snapshot/restore", `Quick, test_mrt_snapshot);
    ("mrt: nested marks undo wrapped bus windows", `Quick,
     test_mrt_restore_wrapped_nested);
    ("ordering: permutation", `Quick, test_ordering_permutation);
    ("ordering: recurrences first", `Quick, test_ordering_recurrence_first);
    ("ordering: neighbour property", `Quick, test_ordering_neighbour_property);
    ("ordering: depths", `Quick, test_depths);
    ("engine: schedules valid", `Quick, test_engine_schedules_and_validates);
    ("engine: achieves MII", `Quick, test_engine_achieves_mii);
    ("engine: forced clusters respected", `Quick, test_engine_forced_cluster);
    ("engine: copy insertion", `Quick, test_engine_inserts_copies);
    ("engine: memory ops share cluster", `Quick, test_engine_memory_same_cluster);
    ("schedule: validator rejects tampering", `Quick, test_validate_rejects_tampering);
    ("schedule: metrics", `Quick, test_schedule_metrics);
    ("schedule: kernel dump", `Quick, test_kernel_dump);
    ("ir: dot export", `Quick, test_dot_export);
    ("engine: wedge recovery", `Quick, test_wedge_recovery);
    ("engine: infeasible loops raise", `Quick, test_infeasible_loop_raises);
  ]
