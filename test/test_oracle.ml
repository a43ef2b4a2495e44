(* The exact modulo-scheduling oracle and its CP core: solver unit
   tests, handcrafted feasibility/infeasibility cases, and qcheck
   properties tying the oracle to the heuristic scheduler and the
   independent verifier on random loops. *)

open Vliw_ir
module Config = Vliw_arch.Config
module Engine = Vliw_sched.Engine
module Cpsolver = Vliw_analysis.Cpsolver
module Oracle = Vliw_analysis.Oracle
module Lint_ddg = Vliw_analysis.Lint_ddg
module Verify_schedule = Vliw_analysis.Verify_schedule
module Diagnostic = Vliw_analysis.Diagnostic

let cfg = Config.default

(* ------------------------------------------------------ CP solver *)

(* n vars over d values, pairwise distinct (pigeonhole when n > d). *)
let all_diff n d =
  let s = Cpsolver.create () in
  let vars = Array.init n (fun _ -> -1) in
  for i = 0 to n - 1 do
    vars.(i) <- Cpsolver.new_var s ~size:d
  done;
  Cpsolver.on_assign s (fun v ->
      let x = Cpsolver.value s v in
      Array.iter (fun w -> if w <> v then Cpsolver.remove s w x) vars);
  let order = Array.copy vars in
  (s, vars, order)

let test_cpsolver_sat () =
  let s, vars, order = all_diff 3 3 in
  let r, stats =
    Cpsolver.solve s ~order ~max_decisions:1000 ~max_conflicts:1000 ()
  in
  Alcotest.(check bool) "sat" true (r = Cpsolver.Sat);
  let seen = Array.make 3 false in
  Array.iter (fun v -> seen.(Cpsolver.value s v) <- true) vars;
  Alcotest.(check bool) "distinct" true (Array.for_all Fun.id seen);
  Alcotest.(check bool) "took decisions" true (stats.Cpsolver.decisions > 0)

let test_cpsolver_pigeonhole () =
  let s, _, order = all_diff 4 3 in
  let r, _ =
    Cpsolver.solve s ~order ~max_decisions:10_000 ~max_conflicts:10_000 ()
  in
  Alcotest.(check bool) "unsat" true (r = Cpsolver.Unsat)

let test_cpsolver_budget () =
  let s, _, order = all_diff 4 3 in
  let r, stats =
    Cpsolver.solve s ~order ~max_decisions:2 ~max_conflicts:10_000 ()
  in
  Alcotest.(check bool) "budget" true (r = Cpsolver.Budget_exhausted);
  Alcotest.(check int) "counted" 3 stats.Cpsolver.decisions

let test_cpsolver_propagation () =
  (* forcing chain: v0 = 1 removes 1 everywhere; all domains size 2 *)
  let s = Cpsolver.create () in
  let a = Cpsolver.new_var s ~size:2 in
  let b = Cpsolver.new_var s ~size:2 in
  Cpsolver.on_assign s (fun v ->
      if v = a then Cpsolver.remove s b (Cpsolver.value s a));
  Cpsolver.assign s a 1;
  Cpsolver.propagate s;
  Alcotest.(check int) "b forced" 0 (Cpsolver.value s b)

(* ------------------------------------------------- handcrafted DDGs *)

let latency ddg = Ddg.default_latency ddg

let independent_ints n =
  let b = Builder.create () in
  for _ = 1 to n do
    ignore (Builder.add b ~dests:[ Builder.fresh_reg b ] Opcode.Int_alu)
  done;
  Builder.build b

let heuristic_ii ddg =
  match Engine.schedule cfg ddg ~latency:(latency ddg) () with
  | Some sch -> sch.Vliw_sched.Schedule.ii
  | None -> Alcotest.fail "heuristic scheduler returned no schedule"

let test_optimal_independent () =
  (* 8 single-cycle int ops over 4 clusters with 1 int FU each: the
     heuristic reaches the resource floor, so the oracle proves
     optimality without a single probe *)
  let ddg = independent_ints 8 in
  let hii = heuristic_ii ddg in
  let cert = Oracle.certify cfg ddg ~latency:(latency ddg) ~heuristic_ii:hii () in
  Alcotest.(check bool) "sound" true (Oracle.sound cert);
  Alcotest.(check int) "floor" 2 cert.Oracle.floor;
  Alcotest.(check bool)
    "optimal" true
    (cert.Oracle.verdict = Oracle.Optimal && cert.Oracle.minimal_ii = Some hii);
  Alcotest.(check int) "no probes" 0 (List.length cert.Oracle.probes)

let test_infeasible_below_resmii () =
  (* 9 int ops cannot fit 4 int FUs in ii = 2: exhaustive refutation *)
  let ddg = independent_ints 9 in
  let d, _ =
    Oracle.decide cfg ddg ~latency:(latency ddg) ~ii:2 ~budget:100_000 ()
  in
  Alcotest.(check bool) "infeasible" true (d = Oracle.Infeasible)

let test_infeasible_below_recmii () =
  (* self-recurrence of an Int_mul: rec_mii = its latency; one below is
     refuted by the positive-cycle propagator, not by any shortcut *)
  let b = Builder.create () in
  let r = Builder.fresh_reg b in
  let a = Builder.add b ~dests:[ r ] ~srcs:[ r ] Opcode.Int_mul in
  Builder.flow b ~distance:1 a a;
  let ddg = Builder.build b in
  let rec_mii = Mii.rec_mii ddg ~latency:(latency ddg) in
  Alcotest.(check bool) "recurrence exists" true (rec_mii > 1);
  let d, _ =
    Oracle.decide cfg ddg ~latency:(latency ddg) ~ii:(rec_mii - 1)
      ~budget:100_000 ()
  in
  Alcotest.(check bool) "infeasible" true (d = Oracle.Infeasible);
  let d, _ =
    Oracle.decide cfg ddg ~latency:(latency ddg) ~ii:rec_mii ~budget:100_000 ()
  in
  match d with
  | Oracle.Feasible w ->
      let diags =
        Verify_schedule.verify cfg ddg ~latency:(latency ddg) ~where:"test" w
      in
      Alcotest.(check int) "witness clean" 0 (Diagnostic.n_errors diags)
  | _ -> Alcotest.fail "expected a witness at rec_mii"

let test_cross_cluster_gap () =
  (* a producer feeding many consumers across clusters: the oracle must
     insert copies, respect bus windows, and still find the minimum *)
  let b = Builder.create () in
  let r = Builder.fresh_reg b in
  let p = Builder.add b ~dests:[ r ] Opcode.Int_alu in
  for _ = 1 to 7 do
    let c = Builder.add b ~dests:[ Builder.fresh_reg b ] ~srcs:[ r ] Opcode.Int_alu in
    Builder.flow b p c
  done;
  let ddg = Builder.build b in
  let hii = heuristic_ii ddg in
  let cert = Oracle.certify cfg ddg ~latency:(latency ddg) ~heuristic_ii:hii () in
  Alcotest.(check bool) "sound" true (Oracle.sound cert);
  Alcotest.(check bool)
    "closed" true
    (cert.Oracle.verdict <> Oracle.Unknown);
  match cert.Oracle.witness with
  | Some w ->
      let diags =
        Verify_schedule.verify cfg ddg ~latency:(latency ddg) ~where:"test" w
      in
      Alcotest.(check int) "witness clean" 0 (Diagnostic.n_errors diags)
  | None -> ()

let test_certify_deterministic () =
  let ddg = independent_ints 9 in
  let hii = heuristic_ii ddg in
  let run () =
    let c = Oracle.certify cfg ddg ~latency:(latency ddg) ~heuristic_ii:hii () in
    (c.Oracle.minimal_ii, c.Oracle.infeasible_below, c.Oracle.decisions,
     c.Oracle.conflicts)
  in
  Alcotest.(check bool) "identical reruns" true (run () = run ())

(* The search allocates almost nothing per decision: trail, queue and
   counters are int arrays, candidates are value bounds.  Certifying
   rasta/filterbank as explain does (IPBC, seed 7: 4,304 decisions)
   must stay under 100 minor words per decision, witness realization
   and verification included. *)
let test_oracle_allocation () =
  let module WL = Vliw_workloads in
  let module Pipeline = Vliw_core.Pipeline in
  let bench = WL.Mediabench.find "rasta" in
  let layout =
    WL.Layout.create cfg ~aligned:true ~run:WL.Layout.Profile_run ~seed:7
  in
  let profiler =
    WL.Profiling.memoized ~memo:(WL.Profiling.table_memo ()) cfg layout
  in
  let index, loop =
    List.find
      (fun (_, l) -> l.Loop.name = "filterbank")
      (List.mapi (fun i l -> (i, l)) (WL.Benchspec.loops bench))
  in
  let target = Pipeline.Interleaved { heuristic = `Ipbc; chains = true } in
  let c =
    Pipeline.compile cfg ~target ~strategy:Vliw_core.Unroll_select.Selective
      ~profiler:(profiler ~index loop) loop
  in
  let hii = (Vliw_analysis.Attribution.attribute cfg c).Vliw_analysis.Attribution.ii in
  let latencies = c.Pipeline.latencies in
  let before = Gc.minor_words () in
  let cert =
    Oracle.certify cfg c.Pipeline.loop.Loop.ddg
      ~latency:(fun i -> latencies.(i))
      ~allow_cross_cluster_mem:(Pipeline.allow_cross_cluster_mem target)
      ~heuristic_ii:hii ()
  in
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "decisions" 4304 cert.Oracle.decisions;
  let per = words /. float cert.Oracle.decisions in
  if per >= 100. then
    Alcotest.failf "%.1f minor words per decision (%d decisions)" per
      cert.Oracle.decisions

(* ------------------------------------------------------ properties *)

(* Random loops: forward register edges at distance 0, loop-carried
   back edges at distance >= 1 (never a zero-distance cycle), memory
   edges only between memory operations. *)
let build_random_ddg rng =
  let gen_int bound = QCheck.Gen.generate1 ~rand:rng (QCheck.Gen.int_bound bound) in
  let n = 2 + gen_int 8 in
  let b = Builder.create () in
  let mem_ops = ref [] in
  for i = 0 to n - 1 do
    let id =
      match gen_int 4 with
      | 0 ->
          let id =
            Builder.add b
              ~dests:[ Builder.fresh_reg b ]
              ~mem:
                (Mem_access.make
                   ~symbol:(Printf.sprintf "s%d" (gen_int 2))
                   ~stride:(4 * (1 + gen_int 3))
                   ~granularity:4 ())
              Opcode.Load
          in
          mem_ops := id :: !mem_ops;
          id
      | 1 -> Builder.add b ~dests:[ Builder.fresh_reg b ] Opcode.Fp_mul
      | 2 -> Builder.add b ~dests:[ Builder.fresh_reg b ] Opcode.Int_mul
      | _ -> Builder.add b ~dests:[ Builder.fresh_reg b ] Opcode.Int_alu
    in
    ignore id;
    if i > 0 then begin
      let kind = if gen_int 3 = 0 then Edge.Reg_anti else Edge.Reg_flow in
      Builder.dep b ~kind (gen_int (i - 1)) i
    end;
    if i > 1 && gen_int 3 = 0 then
      Builder.dep b ~kind:Edge.Reg_flow ~distance:(1 + gen_int 1) i (gen_int i)
  done;
  (match !mem_ops with
  | a :: b' :: _ -> Builder.dep b ~kind:Edge.Mem_flow ~distance:1 b' a
  | _ -> ());
  Builder.build b

let make_test ~name prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:40 ~name
       QCheck.(make Gen.(int_bound 1_000_000))
       prop)

let random_ddg_prop ~name f =
  make_test ~name (fun seed ->
      let rng = Random.State.make [| seed |] in
      f (build_random_ddg rng))

(* Independent recomputation of the oracle's RecMII floor: only cycles
   of flow and memory edges survive clustering (cross-cluster anti/out
   dependences are unconstrained in this machine model). *)
let independent_floor ddg ~latency =
  let kept =
    List.filter
      (fun (e : Edge.t) ->
        match e.Edge.kind with
        | Edge.Reg_anti | Edge.Reg_out -> false
        | _ -> true)
      (Ddg.edges ddg)
  in
  Lint_ddg.independent_rec_mii (Ddg.make (Ddg.ops ddg) kept) ~latency

let prop_oracle_brackets_heuristic =
  random_ddg_prop ~name:"oracle: sound, >= flow RecMII, <= heuristic II"
    (fun ddg ->
      let lat = latency ddg in
      let hii = heuristic_ii ddg in
      let cert =
        Oracle.certify cfg ddg ~latency:lat ~budget:30_000 ~heuristic_ii:hii ()
      in
      let independent = independent_floor ddg ~latency:lat in
      Oracle.sound cert
      && cert.Oracle.floor <= hii
      && (match cert.Oracle.minimal_ii with
         | Some m -> m >= independent && m <= hii
         | None -> cert.Oracle.verdict = Oracle.Unknown)
      && cert.Oracle.infeasible_below >= cert.Oracle.floor)

let prop_witness_verifies =
  random_ddg_prop ~name:"oracle: every SAT witness passes verify_schedule"
    (fun ddg ->
      let lat = latency ddg in
      let hii = heuristic_ii ddg in
      match Oracle.decide cfg ddg ~latency:lat ~ii:hii ~budget:30_000 () with
      | Oracle.Feasible w, _ ->
          let diags =
            Verify_schedule.verify cfg ddg ~latency:lat ~where:"prop" w
          in
          Diagnostic.n_errors diags = 0
      | Oracle.Infeasible, _ ->
          (* the heuristic found a schedule at this II: claiming
             infeasibility here would be a soundness bug *)
          false
      | Oracle.Out_of_budget, _ -> true)

let prop_rejects_below_recmii =
  random_ddg_prop ~name:"oracle: mutation below the floor is rejected"
    (fun ddg ->
      let lat = latency ddg in
      let floor = independent_floor ddg ~latency:lat in
      floor <= 1
      ||
      match
        Oracle.decide cfg ddg ~latency:lat ~ii:(floor - 1) ~budget:30_000 ()
      with
      | Oracle.Feasible _, _ -> false
      | (Oracle.Infeasible | Oracle.Out_of_budget), _ -> true)

(* -------------------------------------------- leaderboard plumbing *)

module Explain = Vliw_analysis.Explain
module Analyze = Vliw_analysis.Analyze
module Pool = Vliw_parallel.Pool

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

(* One small gap benchmark (jpegdec/huffman, II=2 over MII=1) rendered
   to JSON under an explicit worker-domain count. *)
let render_explain ~jobs =
  let saved = Pool.default_jobs () in
  Pool.set_default_jobs jobs;
  Fun.protect
    ~finally:(fun () -> Pool.set_default_jobs saved)
    (fun () ->
      let buf = Buffer.create 4096 in
      let ppf = Format.formatter_of_buffer buf in
      let summary =
        Explain.run_all ~benchmarks:[ "jpegdec" ] ~json:true
          ~oracle_budget:Oracle.default_budget ppf
      in
      Format.pp_print_flush ppf ();
      (summary, Buffer.contents buf))

let test_leaderboard_deterministic () =
  let s1, out1 = render_explain ~jobs:1 in
  let s2, out2 = render_explain ~jobs:2 in
  Alcotest.(check string) "byte-identical at --jobs 1 vs --jobs 2" out1 out2;
  Alcotest.(check int) "one gap loop certified" 1
    (List.length s1.Explain.leaderboard);
  Alcotest.(check int) "same rows both ways"
    (List.length s1.Explain.leaderboard)
    (List.length s2.Explain.leaderboard);
  List.iter
    (fun (row : Explain.oracle_row) ->
      Alcotest.(check bool) "row is sound" true (Oracle.sound row.Explain.o_cert))
    s1.Explain.leaderboard

let test_schema_version_stamped () =
  let _, explain_json = render_explain ~jobs:1 in
  let stamp =
    Printf.sprintf "\"schema_version\": %d" Explain.schema_version
  in
  Alcotest.(check bool) "explain --json carries schema_version" true
    (contains explain_json stamp);
  Alcotest.(check bool) "explain --json carries leaderboard" true
    (contains explain_json "\"leaderboard\"");
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  let _ = Analyze.run_all ~benchmarks:[ "epicdec" ] ~json:true ppf in
  Format.pp_print_flush ppf ();
  Alcotest.(check bool) "analyze --json carries schema_version" true
    (contains (Buffer.contents buf) stamp)

(* A starvation budget forces Out_of_budget on the gap loop's first
   probe: the verdict must render as unknown(budget) WITH its partial
   result — work spent and the floor proven so far — in both the human
   leaderboard and the per-loop JSON, and stay distinguishable from
   loops where the oracle was never attempted ("oracle":null). *)
let test_unknown_budget_reports_partial_result () =
  let render ~json =
    let buf = Buffer.create 4096 in
    let ppf = Format.formatter_of_buffer buf in
    let summary =
      Explain.run_all ~benchmarks:[ "jpegdec" ] ~json ~oracle_budget:2 ppf
    in
    Format.pp_print_flush ppf ();
    (summary, Buffer.contents buf)
  in
  let summary, human = render ~json:false in
  let rows = summary.Explain.leaderboard in
  Alcotest.(check bool) "at least one row starved" true
    (List.exists
       (fun (r : Explain.oracle_row) ->
         r.Explain.o_cert.Oracle.verdict = Oracle.Unknown)
       rows);
  List.iter
    (fun (r : Explain.oracle_row) ->
      let c = r.Explain.o_cert in
      if c.Oracle.verdict = Oracle.Unknown then begin
        Alcotest.(check bool) "starved row burned work" true
          (c.Oracle.decisions + c.Oracle.conflicts > 0);
        Alcotest.(check bool) "floor proven so far is sound" true
          (c.Oracle.infeasible_below >= c.Oracle.floor
          && c.Oracle.infeasible_below <= c.Oracle.heuristic_ii)
      end)
    rows;
  Alcotest.(check bool) "human leaderboard names the verdict" true
    (contains human "unknown(budget)");
  Alcotest.(check bool) "human leaderboard carries work spent" true
    (contains human "[spent ");
  Alcotest.(check bool) "human leaderboard carries the proven floor" true
    (contains human "proven]");
  let _, json_out = render ~json:true in
  Alcotest.(check bool) "per-loop JSON carries the starved certificate" true
    (contains json_out {|"oracle":{"verdict":"unknown(budget)"|});
  Alcotest.(check bool) "JSON distinguishes not-attempted loops" true
    (contains json_out {|"oracle":null|});
  Alcotest.(check bool) "starved JSON reports decisions spent" true
    (contains json_out {|"decisions":|});
  Alcotest.(check bool) "starved JSON reports the proven floor" true
    (contains json_out {|"proven_floor":|})

let suite =
  [
    Alcotest.test_case "cpsolver: all-diff sat" `Quick test_cpsolver_sat;
    Alcotest.test_case "cpsolver: pigeonhole unsat" `Quick
      test_cpsolver_pigeonhole;
    Alcotest.test_case "cpsolver: decision budget" `Quick test_cpsolver_budget;
    Alcotest.test_case "cpsolver: propagation forces" `Quick
      test_cpsolver_propagation;
    Alcotest.test_case "oracle: independent ops optimal" `Quick
      test_optimal_independent;
    Alcotest.test_case "oracle: refutes below ResMII" `Quick
      test_infeasible_below_resmii;
    Alcotest.test_case "oracle: refutes below RecMII, witness at RecMII"
      `Quick test_infeasible_below_recmii;
    Alcotest.test_case "oracle: cross-cluster copies" `Quick
      test_cross_cluster_gap;
    Alcotest.test_case "oracle: deterministic reruns" `Quick
      test_certify_deterministic;
    Alcotest.test_case "oracle: < 100 minor words per decision" `Quick
      test_oracle_allocation;
    Alcotest.test_case "leaderboard: byte-identical across --jobs" `Quick
      test_leaderboard_deterministic;
    Alcotest.test_case "leaderboard: unknown(budget) carries partial result"
      `Quick test_unknown_budget_reports_partial_result;
    Alcotest.test_case "json: schema_version stamped" `Quick
      test_schema_version_stamped;
    prop_oracle_brackets_heuristic;
    prop_witness_verifies;
    prop_rejects_below_recmii;
  ]
