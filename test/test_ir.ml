(* Unit tests for the vliw_ir substrate: opcodes, operations, edges,
   DDGs, SCC/recurrence analysis, MII and unrolling. *)

open Vliw_ir

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool

(* --------------------------------------------------------------- DDGs *)

(* A diamond: 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3. *)
let diamond () =
  let b = Builder.create () in
  let n0 = Builder.add b Opcode.Int_alu ~dests:[ 0 ] in
  let n1 = Builder.add b Opcode.Int_alu ~dests:[ 1 ] in
  let n2 = Builder.add b Opcode.Int_alu ~dests:[ 2 ] in
  let n3 = Builder.add b Opcode.Int_alu ~dests:[ 3 ] in
  Builder.flow b n0 n1;
  Builder.flow b n0 n2;
  Builder.flow b n1 n3;
  Builder.flow b n2 n3;
  Builder.build b

(* A 2-node recurrence with distance 1 and an extra feeder node. *)
let small_recurrence () =
  let b = Builder.create () in
  let n0 = Builder.add b Opcode.Int_alu in
  let n1 = Builder.add b Opcode.Int_mul in
  let n2 = Builder.add b Opcode.Int_alu in
  Builder.flow b n0 n1;
  Builder.flow b n1 n2;
  Builder.flow b ~distance:1 n2 n1;
  Builder.build b

let mem symbol = Mem_access.make ~symbol ~stride:4 ~granularity:4 ()

(* ------------------------------------------------------------- opcode *)

let test_fu_class () =
  check cb "load is memory" true (Opcode.is_memory Opcode.Load);
  check cb "store is memory" true (Opcode.is_memory Opcode.Store);
  check cb "add is not memory" false (Opcode.is_memory Opcode.Int_alu);
  Alcotest.(check string) "copy on int fu" "Int"
    (match Opcode.fu_class Opcode.Copy with
    | Opcode.Int_fu -> "Int"
    | Opcode.Fp_fu -> "Fp"
    | Opcode.Mem_fu -> "Mem");
  check ci "div latency" 6 (Opcode.default_latency Opcode.Int_div);
  check ci "store latency" 1 (Opcode.default_latency Opcode.Store)

let test_opcode_strings () =
  List.iter
    (fun op ->
      check cb
        (Printf.sprintf "to_string %s non-empty" (Opcode.to_string op))
        true
        (String.length (Opcode.to_string op) > 0))
    [
      Opcode.Int_alu; Opcode.Int_mul; Opcode.Int_div; Opcode.Fp_alu;
      Opcode.Fp_mul; Opcode.Fp_div; Opcode.Load; Opcode.Store; Opcode.Copy;
    ]

(* ---------------------------------------------------------- operation *)

let test_operation_validation () =
  Alcotest.check_raises "memory opcode needs descriptor"
    (Invalid_argument "Operation.make: memory opcode without access descriptor")
    (fun () -> ignore (Operation.make ~id:0 Opcode.Load));
  Alcotest.check_raises "non-memory opcode rejects descriptor"
    (Invalid_argument "Operation.make: access descriptor on non-memory opcode")
    (fun () -> ignore (Operation.make ~id:0 ~mem:(mem "a") Opcode.Int_alu))

let test_operation_predicates () =
  let l = Operation.make ~id:0 ~mem:(mem "a") Opcode.Load in
  let s = Operation.make ~id:1 ~mem:(mem "a") Opcode.Store in
  check cb "load is_load" true (Operation.is_load l);
  check cb "load not is_store" false (Operation.is_store l);
  check cb "store is_store" true (Operation.is_store s);
  check cb "store is memory" true (Operation.is_memory s);
  check ci "with_id" 7 (Operation.with_id l 7).Operation.id

(* --------------------------------------------------------------- edge *)

let test_edge () =
  Alcotest.check_raises "negative distance rejected"
    (Invalid_argument "Edge.make: negative distance") (fun () ->
      ignore (Edge.make ~distance:(-1) ~src:0 ~dst:1 ()));
  check cb "mem kind" true (Edge.is_memory_kind Edge.Mem_unresolved);
  check cb "reg kind" false (Edge.is_memory_kind Edge.Reg_anti)

(* ---------------------------------------------------------------- ddg *)

let test_ddg_structure () =
  let g = diamond () in
  check ci "n_ops" 4 (Ddg.n_ops g);
  check ci "succs of 0" 2 (List.length (Ddg.succs g 0));
  check ci "preds of 3" 2 (List.length (Ddg.preds g 3));
  check ci "no memory ops" 0 (List.length (Ddg.memory_ops g))

let test_ddg_validation () =
  let op i = Operation.make ~id:i Opcode.Int_alu in
  Alcotest.check_raises "non-dense ids"
    (Invalid_argument "Ddg.make: non-dense ids") (fun () ->
      ignore (Ddg.make [| Operation.make ~id:1 Opcode.Int_alu |] []));
  Alcotest.check_raises "edge out of range"
    (Invalid_argument "Ddg.make: edge endpoint out of range") (fun () ->
      ignore (Ddg.make [| op 0 |] [ Edge.make ~src:0 ~dst:3 () ]))

let test_effective_latency () =
  let g = small_recurrence () in
  let latency i = Ddg.default_latency g i in
  let e kind = Edge.make ~kind ~src:1 ~dst:2 () in
  check ci "reg flow uses producer latency" 2
    (Ddg.effective_latency ~latency (e Edge.Reg_flow));
  check ci "anti is free" 0 (Ddg.effective_latency ~latency (e Edge.Reg_anti));
  check ci "output serializes" 1
    (Ddg.effective_latency ~latency (e Edge.Reg_out));
  check ci "memory serializes" 1
    (Ddg.effective_latency ~latency (e Edge.Mem_flow))

(* ---------------------------------------------------------------- scc *)

let test_scc_dag () =
  let g = diamond () in
  check ci "four singletons" 4 (List.length (Scc.components g));
  check ci "no recurrences" 0 (List.length (Scc.recurrences g))

let test_scc_cycle () =
  let g = small_recurrence () in
  let recs = Scc.recurrences g in
  check ci "one recurrence" 1 (List.length recs);
  check ci "two nodes in it" 2 (List.length (List.hd recs));
  let comp = Scc.component_of g in
  check cb "1 and 2 share component" true (comp 1 = comp 2);
  check cb "0 is alone" true (comp 0 <> comp 1)

let test_scc_self_loop () =
  let b = Builder.create () in
  let n0 = Builder.add b Opcode.Int_alu in
  Builder.flow b ~distance:1 n0 n0;
  let g = Builder.build b in
  check ci "self loop is a recurrence" 1 (List.length (Scc.recurrences g))

let test_scc_partition () =
  let g = small_recurrence () in
  let all = List.concat (Scc.components g) in
  check ci "components partition nodes" (Ddg.n_ops g)
    (List.length (List.sort_uniq compare all))

(* ---------------------------------------------------------------- mii *)

let test_mii_simple_cycle () =
  let g = small_recurrence () in
  let latency i = Ddg.default_latency g i in
  (* Cycle: n1 (mul, lat 2) -> n2 (add, lat 1) -> n1 with distance 1:
     II = 2 + 1 = 3. *)
  check ci "rec_mii" 3 (Mii.rec_mii g ~latency);
  check cb "feasible at 3" true
    (Mii.feasible g ~latency ~nodes:[ 1; 2 ] ~ii:3);
  check cb "infeasible at 2" false
    (Mii.feasible g ~latency ~nodes:[ 1; 2 ] ~ii:2)

let test_mii_dag () =
  let g = diamond () in
  check ci "dag has rec_mii 1" 1
    (Mii.rec_mii g ~latency:(Ddg.default_latency g))

let test_mii_infeasible () =
  let b = Builder.create () in
  let n0 = Builder.add b Opcode.Int_alu in
  Builder.flow b n0 n0;
  (* zero-distance positive cycle *)
  let g = Builder.build b in
  Alcotest.check_raises "zero-distance cycle" Mii.Infeasible (fun () ->
      ignore (Mii.recurrence_ii g ~latency:(Ddg.default_latency g) [ n0 ]))

let test_mii_infeasible_large () =
  (* The zero-distance cycle hides among 16,064 simple cycles. *)
  let g = Mii_spec.complete_graph ~zero_cycle:true () in
  let latency = Ddg.default_latency g in
  let nodes = List.hd (Scc.recurrences g) in
  check ci "one recurrence of all 8 nodes" 8 (List.length nodes);
  Alcotest.check_raises "recurrence_ii" Mii.Infeasible (fun () ->
      ignore (Mii.recurrence_ii g ~latency nodes));
  Alcotest.check_raises "rec_mii" Mii.Infeasible (fun () ->
      ignore (Mii.rec_mii g ~latency))

let test_mii_latency_scaling () =
  let g = small_recurrence () in
  let base = Mii.rec_mii g ~latency:(Ddg.default_latency g) in
  let heavier i = Ddg.default_latency g i + 5 in
  check cb "larger latency, larger II" true
    (Mii.rec_mii g ~latency:heavier > base)

let test_mii_solver_matches_oneshot () =
  let g = small_recurrence () in
  let latency i = Ddg.default_latency g i in
  let nodes = List.hd (Scc.recurrences g) in
  let s = Mii.solver g ~nodes in
  check ci "solver = one-shot" (Mii.recurrence_ii g ~latency nodes)
    (Mii.solve s ~latency)

(* ------------------------------------------------------------- unroll *)

let mem_loop () =
  let b = Builder.create () in
  let l =
    Builder.add b ~dests:[ 0 ]
      ~mem:(Mem_access.make ~symbol:"a" ~offset:8 ~stride:4 ~granularity:4 ())
      Opcode.Load
  in
  let c = Builder.add b ~dests:[ 1 ] ~srcs:[ 0 ] Opcode.Int_alu in
  let s =
    Builder.add b ~srcs:[ 1 ]
      ~mem:(Mem_access.make ~symbol:"b" ~stride:4 ~granularity:4 ())
      Opcode.Store
  in
  Builder.flow b l c;
  Builder.flow b c s;
  Builder.dep b ~kind:Edge.Mem_flow ~distance:2 s l;
  Builder.build b

let test_unroll_identity () =
  let g = mem_loop () in
  check cb "factor 1 is identity" true (Unroll.ddg g ~factor:1 == g)

let test_unroll_counts () =
  let g = mem_loop () in
  let u = Unroll.ddg g ~factor:4 in
  check ci "ops x4" (4 * Ddg.n_ops g) (Ddg.n_ops u);
  check ci "edges x4" (4 * List.length (Ddg.edges g))
    (List.length (Ddg.edges u))

let test_unroll_mem_rewrite () =
  let g = mem_loop () in
  let u = Unroll.ddg g ~factor:4 in
  (* Copy k of the load (original id 0) has id k. *)
  List.iter
    (fun k ->
      match (Ddg.op u k).Operation.mem with
      | Some m ->
          check ci
            (Printf.sprintf "offset of copy %d" k)
            (8 + (4 * k))
            m.Mem_access.offset;
          check ci "stride scaled" 16 m.Mem_access.stride
      | None -> Alcotest.fail "expected memory op")
    [ 0; 1; 2; 3 ]

let test_unroll_distance_invariant () =
  (* For every original edge the distances of its unrolled copies sum to
     the original distance. *)
  let g = mem_loop () in
  let factor = 4 in
  let u = Unroll.ddg g ~factor in
  let total_distance edges =
    List.fold_left (fun acc (e : Edge.t) -> acc + e.Edge.distance) 0 edges
  in
  check ci "total distance preserved"
    (total_distance (Ddg.edges g))
    (total_distance (Ddg.edges u))

let test_unroll_id_mapping () =
  let factor = 4 in
  for id = 0 to 11 do
    let orig = Unroll.original_id ~factor id in
    let k = Unroll.copy_index ~factor id in
    check ci "roundtrip" id ((orig * factor) + k)
  done

let test_loop_unrolled () =
  let g = mem_loop () in
  let loop = Loop.make ~name:"t" ~trip_count:64 g in
  let u = Loop.unrolled loop ~factor:4 in
  check ci "trip divided" 16 u.Loop.trip_count;
  check ci "ops multiplied" 12 (Ddg.n_ops u.Loop.ddg);
  Alcotest.check_raises "bad trip count"
    (Invalid_argument "Loop.make: non-positive trip count") (fun () ->
      ignore (Loop.make ~name:"t" ~trip_count:0 g))

let suite =
  [
    ("opcode: fu classes and latencies", `Quick, test_fu_class);
    ("opcode: printable", `Quick, test_opcode_strings);
    ("operation: descriptor validation", `Quick, test_operation_validation);
    ("operation: predicates", `Quick, test_operation_predicates);
    ("edge: validation and kinds", `Quick, test_edge);
    ("ddg: structure", `Quick, test_ddg_structure);
    ("ddg: validation", `Quick, test_ddg_validation);
    ("ddg: effective latency per kind", `Quick, test_effective_latency);
    ("scc: dag has only singletons", `Quick, test_scc_dag);
    ("scc: cycle detected", `Quick, test_scc_cycle);
    ("scc: self loop is a recurrence", `Quick, test_scc_self_loop);
    ("scc: components partition", `Quick, test_scc_partition);
    ("mii: simple cycle", `Quick, test_mii_simple_cycle);
    ("mii: dag", `Quick, test_mii_dag);
    ("mii: infeasible zero-distance cycle", `Quick, test_mii_infeasible);
    ("mii: infeasible inside a large recurrence", `Quick, test_mii_infeasible_large);
    ("mii: monotone in latency", `Quick, test_mii_latency_scaling);
    ("mii: solver consistency", `Quick, test_mii_solver_matches_oneshot);
    ("unroll: factor one", `Quick, test_unroll_identity);
    ("unroll: counts", `Quick, test_unroll_counts);
    ("unroll: memory rewrite", `Quick, test_unroll_mem_rewrite);
    ("unroll: distance invariant", `Quick, test_unroll_distance_invariant);
    ("unroll: id mapping", `Quick, test_unroll_id_mapping);
    ("loop: unrolled bookkeeping", `Quick, test_loop_unrolled);
  ]
