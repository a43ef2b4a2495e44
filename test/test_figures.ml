(* Structural checks on every experiment driver: the tables regenerate,
   have the right shape, and their values are internally consistent. *)

module Table = Vliw_report.Table
module Context = Vliw_experiments.Context
module E = Vliw_experiments

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool
let ctx = Context.create ()
let n_benchmarks = List.length Vliw_workloads.Mediabench.all

let rows_ok ?(expect = n_benchmarks + 1) t =
  check ci (Table.title t ^ ": row count") expect (List.length (Table.rows t))

let values_in_range ?(lo = 0.0) ?(hi = 1.0) t =
  List.iter
    (fun (label, values) ->
      List.iter
        (fun v ->
          check cb
            (Printf.sprintf "%s/%s in [%g, %g]" (Table.title t) label lo hi)
            true
            (v >= lo -. 1e-9 && v <= hi +. 1e-9))
        values)
    (Table.rows t)

let test_fig4_tables () =
  let tables = E.Fig4.tables ctx in
  check ci "four variants + summary" 5 (List.length tables);
  List.iter
    (fun t ->
      rows_ok t;
      values_in_range t)
    tables;
  (* Access-class fractions sum to ~1 in the per-variant tables. *)
  List.iteri
    (fun i t ->
      if i < 4 then
        List.iter
          (fun (label, values) ->
            let sum = List.fold_left ( +. ) 0.0 values in
            check cb (label ^ ": fractions sum to 1") true
              (abs_float (sum -. 1.0) < 1e-6))
          (Table.rows t))
    tables

let test_fig4_gains_positive () =
  let align_gain, unroll_gain = E.Fig4.local_hit_gains ctx in
  check cb "alignment gain positive" true (align_gain > 0.05);
  check cb "unrolling gain positive" true (unroll_gain > 0.15)

let test_fig5_tables () =
  List.iter
    (fun t ->
      (* Benchmarks without remote-hit stall are dropped, as in the
         paper, so only bound the row count. *)
      check cb
        (Table.title t ^ ": plausible row count")
        true
        (List.length (Table.rows t) >= 6
        && List.length (Table.rows t) <= n_benchmarks);
      values_in_range t)
    (E.Fig5.tables ctx)

let test_fig6_tables () =
  match E.Fig6.tables ctx with
  | [ normalized; ibc_break; ipbc_break ] ->
      values_in_range ~hi:3.0 normalized;
      (* IBC without buffers is the normalization base. *)
      List.iter
        (fun (label, values) ->
          if label <> "AMEAN" then
            check (Alcotest.float 1e-9) (label ^ " IBC base") 1.0
              (List.nth values 0))
        (Table.rows normalized);
      List.iter values_in_range [ ibc_break; ipbc_break ]
  | _ -> Alcotest.fail "expected three tables"

let test_fig6_claims () =
  let r_ibc, r_ipbc = E.Fig6.ab_reduction ctx in
  check cb "AB reduce stall (IBC)" true (r_ibc > 0.2);
  check cb "AB reduce stall (IPBC)" true (r_ipbc > 0.2);
  let s_ibc, s_ipbc = E.Fig6.remote_hit_share ctx in
  check cb "remote hits dominate (IBC)" true (s_ibc > 0.5);
  check cb "remote hits dominate (IPBC)" true (s_ipbc > 0.5)

let test_fig7_table () =
  let t = E.Fig7.table ctx in
  rows_ok ~expect:n_benchmarks t;
  values_in_range ~lo:0.25 ~hi:1.0 t;
  (* Unrolling improves balance for (almost) every benchmark. *)
  let improved =
    List.filter
      (fun (_, values) ->
        match values with
        | [ no_unroll; ouf; _ ] -> ouf <= no_unroll +. 1e-9
        | _ -> false)
      (Table.rows t)
  in
  check cb "unrolling improves balance broadly" true
    (List.length improved >= n_benchmarks - 2)

let test_fig8_tables () =
  match E.Fig8.tables ctx with
  | [ total; stall ] ->
      rows_ok total;
      rows_ok stall;
      values_in_range ~hi:5.0 total;
      values_in_range ~hi:5.0 stall;
      (* Stall is part of the total. *)
      List.iter2
        (fun (label, totals) (_, stalls) ->
          List.iter2
            (fun t s ->
              check cb (label ^ ": stall <= total") true (s <= t +. 1e-9))
            totals stalls)
        (Table.rows total) (Table.rows stall)
  | _ -> Alcotest.fail "expected two tables"

let test_fig8_headline_ordering () =
  let hs = E.Fig8.headline ctx in
  let get k = List.assoc k hs in
  check cb "IBC <= IPBC" true (get "IBC" <= get "IPBC" +. 1e-9);
  check cb "interleaved beats the slow unified cache" true
    (get "IBC" < get "Unified(L=5)");
  check cb "everything >= the optimistic unified cache" true
    (List.for_all (fun (_, v) -> v >= 0.95) hs)

let test_sweeps () =
  let t = E.Ablation_machine.table Interleaving ctx in
  rows_ok t;
  let row name = List.assoc name (Table.rows t) in
  (match row "gsmdec" with
  | [ i2; _; i8 ] ->
      check cb "gsm prefers small interleaving over 8B" true (i2 < i8)
  | _ -> Alcotest.fail "unexpected row shape");
  let t2 = E.Ablation_machine.table Clusters ctx in
  rows_ok t2;
  match List.assoc "AMEAN" (Table.rows t2) with
  | [ c2; c4; _ ] -> check cb "4 clusters beat 2 on the mean" true (c4 < c2)
  | _ -> Alcotest.fail "unexpected row shape"

let test_csv_export () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "vliw_csv_test" in
  let paths = E.Csv_export.export ~dir ctx in
  check cb "several files written" true (List.length paths >= 10);
  List.iter
    (fun p ->
      check cb (p ^ " exists") true (Sys.file_exists p);
      let ic = open_in p in
      let header = input_line ic in
      close_in ic;
      check cb (p ^ " has a csv header") true
        (String.length header >= 9 && String.sub header 0 9 = "benchmark"))
    paths

let test_traffic_tables () =
  match E.Ablation_traffic.tables ctx with
  | [ interleaved; multivliw ] ->
      rows_ok interleaved;
      rows_ok multivliw;
      (* The interleaved design has no coherence columns at all. *)
      check cb "interleaved columns protocol-free" true
        (not (List.mem "invalidations" (Table.columns interleaved)));
      check cb "multivliw reports invalidations" true
        (List.mem "invalidations" (Table.columns multivliw))
  | _ -> Alcotest.fail "expected two tables"

let test_unroll_tables () =
  match E.Ablation_unroll.tables ctx with
  | [ cycles; code ] ->
      rows_ok cycles;
      rows_ok code;
      (* Selective is never worse than the fixed strategies, and
         unrolling never shrinks code. *)
      List.iter
        (fun (label, values) ->
          match values with
          | [ none; xn; ouf; sel ] ->
              check cb (label ^ ": selective minimal") true
                (sel <= none +. 1e-6 && sel <= xn +. 1e-6 && sel <= ouf +. 1e-6)
          | _ -> Alcotest.fail "unexpected row shape")
        (Table.rows cycles);
      List.iter
        (fun (label, values) ->
          match values with
          | [ none; _; ouf; _ ] ->
              check cb (label ^ ": OUF code at least as large") true
                (ouf >= none -. 1e-6)
          | _ -> Alcotest.fail "unexpected row shape")
        (Table.rows code)
  | _ -> Alcotest.fail "expected two tables"

let test_ablation_tables () =
  let hints = E.Ablation_hints.table ctx in
  check ci "hints: four rows" 4 (List.length (Table.rows hints));
  let chains = E.Ablation_chains.table ctx in
  (match Table.rows chains with
  | [ (_, with_chains); (_, without) ] ->
      (* no-chains: less stall, more local hits. *)
      check cb "chains cost stall" true
        (List.nth without 1 <= List.nth with_chains 1);
      check cb "chains cost locality" true
        (List.nth without 2 >= List.nth with_chains 2)
  | _ -> Alcotest.fail "expected two rows")

(* Regression bands for the headline numbers recorded in EXPERIMENTS.md:
   loose enough to survive benign refactors, tight enough to catch a
   model regression. *)
let test_headline_regression () =
  let hs = E.Fig8.headline ctx in
  let within name lo hi =
    let v = List.assoc name hs in
    check cb (Printf.sprintf "%s in [%.2f, %.2f] (got %.3f)" name lo hi v)
      true
      (v >= lo && v <= hi)
  in
  within "IPBC" 1.05 1.40;
  within "IBC" 1.02 1.30;
  within "MultiVLIW" 0.95 1.25;
  within "Unified(L=5)" 1.15 1.60;
  let align_gain, unroll_gain = E.Fig4.local_hit_gains ctx in
  check cb "alignment gain band" true
    (align_gain > 0.10 && align_gain < 0.35);
  check cb "unrolling gain band" true
    (unroll_gain > 0.20 && unroll_gain < 0.45);
  let r_ibc, r_ipbc = E.Fig6.ab_reduction ctx in
  check cb "AB reduction band (IBC)" true (r_ibc > 0.30 && r_ibc < 0.75);
  check cb "AB reduction band (IPBC)" true (r_ipbc > 0.30 && r_ipbc < 0.75)

let suite =
  [
    ("fig4: shape and consistency", `Slow, test_fig4_tables);
    ("fig4: headline gains", `Slow, test_fig4_gains_positive);
    ("fig5: shape", `Slow, test_fig5_tables);
    ("fig6: shape and base", `Slow, test_fig6_tables);
    ("fig6: headline claims", `Slow, test_fig6_claims);
    ("fig7: shape and claim", `Slow, test_fig7_table);
    ("fig8: shape and stall component", `Slow, test_fig8_tables);
    ("fig8: headline ordering", `Slow, test_fig8_headline_ordering);
    ("sweeps: interleaving and clusters", `Slow, test_sweeps);
    ("csv export", `Slow, test_csv_export);
    ("traffic tables", `Slow, test_traffic_tables);
    ("unroll strategy tables", `Slow, test_unroll_tables);
    ("ablation tables", `Slow, test_ablation_tables);
    ("headline regression bands", `Slow, test_headline_regression);
  ]
