module Config = Vliw_arch.Config
module Loop = Vliw_ir.Loop
module Pipeline = Vliw_core.Pipeline
module WL = Vliw_workloads
module Pool = Vliw_parallel.Pool
module D = Diagnostic
module Json = Vliw_report.Json

type loop_report = {
  bench : string;
  loop : string;
  target : Pipeline.target;
  unroll_factor : int;
  considered : (int * int) list;
  attribution : Attribution.report;
  locality : Locality.bounds option;
  lints : D.t list;
  oracle : Oracle.certification option;
      (** exact-scheduling certificate, for II>MII loops when requested *)
}

type oracle_row = {
  o_bench : string;
  o_loop : string;
  o_target : string;
  o_unroll : int;
  o_attr_mii : int;
  o_cert : Oracle.certification;
}

type summary = {
  benchmarks : int;
  loops : int;
  gaps : int;
  lints : int;
  leaderboard : oracle_row list;  (** [] unless the oracle ran *)
}

(* JSON consumers key off this to detect the leaderboard extension.
   Version 2: added schema_version itself and the "leaderboard" array.
   Version 3: each loop object carries an "oracle" field — null when the
   oracle was not attempted for that loop, otherwise a certificate
   summary — so budget exhaustion ("unknown(budget)" with work spent and
   the floor proven so far) is distinguishable from "not attempted". *)
let schema_version = 3

(* The compile targets of the [analyze] matrix (the simulation backends
   are irrelevant here — explain never simulates). *)
let targets =
  [
    Pipeline.Interleaved { heuristic = `Ipbc; chains = true };
    Pipeline.Interleaved { heuristic = `Ibc; chains = true };
    Pipeline.Unified { slow = true };
    Pipeline.Multivliw;
  ]

let explain_bench cfg ~seed ?oracle_budget
    ?(oracle_memo = fun (_ : string) f -> f ())
    (bench : WL.Benchspec.t) =
  let profile_layout =
    WL.Layout.create cfg ~aligned:true ~run:WL.Layout.Profile_run ~seed
  in
  let exec_layout =
    WL.Layout.create cfg ~aligned:true ~run:WL.Layout.Execution_run ~seed
  in
  (* One profile table for the benchmark, shared by every target: a
     profile does not depend on the target. *)
  let profiler =
    WL.Profiling.memoized ~memo:(WL.Profiling.table_memo ()) cfg profile_layout
  in
  List.concat_map
    (fun target ->
      List.mapi
        (fun index loop ->
          let c =
            Pipeline.compile cfg ~target
              ~strategy:Vliw_core.Unroll_select.Selective
              ~profiler:(profiler ~index loop) loop
          in
          let where =
            Printf.sprintf "%s/%s[%s]" bench.WL.Benchspec.name
              loop.Loop.name
              (Pipeline.target_to_string target)
          in
          let locality =
            match target with
            | Pipeline.Interleaved _ ->
                Some (Locality.analyze cfg exec_layout c)
            | Pipeline.Unified _ | Pipeline.Multivliw -> None
          in
          let attribution = Attribution.attribute cfg c in
          let oracle =
            match oracle_budget with
            | Some budget
              when attribution.Attribution.ii > attribution.Attribution.mii ->
                let ddg = c.Pipeline.loop.Loop.ddg in
                let latencies = c.Pipeline.latencies in
                let key =
                  Printf.sprintf "oracle|%s|%s|%s|seed=%d|budget=%d|cfg=%s"
                    bench.WL.Benchspec.name loop.Loop.name
                    (Pipeline.target_to_string target)
                    seed budget (Config.fingerprint cfg)
                in
                Some
                  (oracle_memo key (fun () ->
                       Oracle.certify cfg ddg
                         ~latency:(fun i -> latencies.(i))
                         ~allow_cross_cluster_mem:
                           (Pipeline.allow_cross_cluster_mem target)
                         ~budget
                         ~heuristic_ii:attribution.Attribution.ii ()))
            | _ -> None
          in
          {
            bench = bench.WL.Benchspec.name;
            loop = loop.Loop.name;
            target;
            unroll_factor = c.Pipeline.unroll_factor;
            considered = c.Pipeline.considered;
            attribution;
            locality;
            lints = Attribution.missed_locality cfg exec_layout ~where c;
            oracle;
          })
        (WL.Benchspec.loops bench))
    targets

(* ------------------------------------------------------------- report *)

let pp_loop ppf (r : loop_report) =
  let a = r.attribution in
  Format.fprintf ppf "  %-12s %-22s UF=%-2d II=%-3d MII=%-3d floor=%-3d %s"
    r.loop
    (Pipeline.target_to_string r.target)
    r.unroll_factor a.Attribution.ii a.Attribution.mii
    a.Attribution.mii_floor a.Attribution.binding;
  if a.Attribution.budget <> [] then
    Format.fprintf ppf "; losses: %s"
      (String.concat ", "
         (List.map
            (fun (t : Attribution.term) ->
              Printf.sprintf "%s=%d" t.Attribution.cause t.Attribution.cycles)
            a.Attribution.budget));
  Option.iter
    (fun (b : Locality.bounds) ->
      Format.fprintf ppf "; locality %dL/%dR/%dM" b.Locality.n_local
        b.Locality.n_remote b.Locality.n_mixed)
    r.locality;
  Format.fprintf ppf "@."

let minimal_ii_json (c : Oracle.certification) =
  match c.Oracle.minimal_ii with Some m -> Json.Int m | None -> Json.Null

let json_of_loop (r : loop_report) =
  let open Json in
  let a = r.attribution in
  let bound (b : Attribution.bound) =
    Obj
      [ ("name", String b.Attribution.name); ("value", Int b.Attribution.value) ]
  in
  let term (t : Attribution.term) =
    Obj
      [
        ("cause", String t.Attribution.cause);
        ("cycles", Int t.Attribution.cycles);
      ]
  in
  let locality (b : Locality.bounds) =
    Obj
      [
        ("n_local", Int b.Locality.n_local);
        ("n_remote", Int b.Locality.n_remote);
        ("n_mixed", Int b.Locality.n_mixed);
        ("trip_local", Int b.Locality.trip_local);
        ("trip_remote", Int b.Locality.trip_remote);
        ("trip_total", Int b.Locality.trip_total);
      ]
  in
  let oracle (c : Oracle.certification) =
    Obj
      [
        ("verdict", String (Oracle.verdict_to_string c.Oracle.verdict));
        ("minimal_ii", minimal_ii_json c);
        ("proven_floor", Int c.Oracle.infeasible_below);
        ("decisions", Int c.Oracle.decisions);
        ("conflicts", Int c.Oracle.conflicts);
      ]
  in
  Obj
    [
      ("bench", String r.bench); ("loop", String r.loop);
      ("target", String (Pipeline.target_to_string r.target));
      ("unroll", Int r.unroll_factor);
      ( "considered",
        List
          (List.map (fun (f, est) -> List [ Int f; Int est ]) r.considered) );
      ("ii", Int a.Attribution.ii); ("mii", Int a.Attribution.mii);
      ("mii_floor", Int a.Attribution.mii_floor);
      ("rec_mii", Int a.Attribution.rec_mii);
      ("rec_mii_floor", Int a.Attribution.rec_mii_floor);
      ("res_mii", Int a.Attribution.res_mii);
      ("cluster_bound", bound a.Attribution.cluster_bound);
      ("copy_bound", bound a.Attribution.copy_bound);
      ("bus_bound", Int a.Attribution.bus_bound);
      ("binding", String a.Attribution.binding);
      ("budget", List (List.map term a.Attribution.budget));
      ("locality", Option.fold ~none:Null ~some:locality r.locality);
      ("lints", List (List.map D.to_json r.lints));
      (* null when not attempted: no budget given or II = MII *)
      ("oracle", Option.fold ~none:Null ~some:oracle r.oracle);
    ]

(* ------------------------------------------------------- leaderboard *)

let row_of_report (r : loop_report) cert =
  {
    o_bench = r.bench;
    o_loop = r.loop;
    o_target = Pipeline.target_to_string r.target;
    o_unroll = r.unroll_factor;
    o_attr_mii = r.attribution.Attribution.mii;
    o_cert = cert;
  }

let proven_label (c : Oracle.certification) =
  match c.Oracle.minimal_ii with
  | Some m -> string_of_int m
  | None ->
      Printf.sprintf "[%d,%d]" c.Oracle.infeasible_below c.Oracle.heuristic_ii

let pp_leaderboard ppf rows ~budget =
  Format.fprintf ppf
    "optimality leaderboard (%d loops with II>MII, budget=%d \
     decisions/conflicts per II probe):@."
    (List.length rows) budget;
  Format.fprintf ppf "  %-10s %-12s %-22s %3s %3s %6s %-8s %s@." "bench"
    "loop" "target" "UF" "II" "floor" "proven" "verdict";
  List.iter
    (fun row ->
      let c = row.o_cert in
      (* Budget-exhausted rows carry their partial result inline: the
         work already sunk and the infeasibility floor it bought, so an
         "unknown(budget)" is visibly different from "never tried". *)
      let budget_note =
        match c.Oracle.verdict with
        | Oracle.Unknown ->
            Printf.sprintf "  [spent %d decisions+conflicts, minimum >= %d proven]"
              (c.Oracle.decisions + c.Oracle.conflicts)
              c.Oracle.infeasible_below
        | Oracle.Optimal | Oracle.Hardware_bound | Oracle.Heuristic_gap -> ""
      in
      Format.fprintf ppf "  %-10s %-12s %-22s %3d %3d %6d %-8s %s%s%s@."
        row.o_bench row.o_loop row.o_target row.o_unroll
        c.Oracle.heuristic_ii c.Oracle.floor (proven_label c)
        (Oracle.verdict_to_string c.Oracle.verdict)
        budget_note
        (if Oracle.sound c then "" else "  SOUNDNESS VIOLATION"))
    rows

let json_of_row row =
  let open Json in
  let c = row.o_cert in
  let probe (p : Oracle.probe) =
    let result =
      match p.Oracle.p_sat with
      | Oracle.Feasible _ -> "sat"
      | Oracle.Infeasible -> "unsat"
      | Oracle.Out_of_budget -> "budget"
    in
    Obj
      [
        ("ii", Int p.Oracle.p_ii); ("result", String result);
        ("decisions", Int p.Oracle.p_stats.Cpsolver.decisions);
        ("conflicts", Int p.Oracle.p_stats.Cpsolver.conflicts);
      ]
  in
  let witness _ =
    Obj
      [
        ("errors", Int (D.n_errors c.Oracle.witness_diags));
        ("warnings", Int (D.n_warnings c.Oracle.witness_diags));
      ]
  in
  Obj
    [
      ("bench", String row.o_bench); ("loop", String row.o_loop);
      ("target", String row.o_target); ("unroll", Int row.o_unroll);
      ("heuristic_ii", Int c.Oracle.heuristic_ii);
      ("attribution_mii", Int row.o_attr_mii); ("floor", Int c.Oracle.floor);
      ("minimal_ii", minimal_ii_json c);
      ("infeasible_below", Int c.Oracle.infeasible_below);
      ("verdict", String (Oracle.verdict_to_string c.Oracle.verdict));
      ("witness", Option.fold ~none:Null ~some:witness c.Oracle.witness);
      ("probes", List (List.map probe c.Oracle.probes));
      ("decisions", Int c.Oracle.decisions);
      ("conflicts", Int c.Oracle.conflicts); ("sound", Bool (Oracle.sound c));
    ]

let summary_json s =
  Json.(
    Obj
      [
        ("benchmarks", Int s.benchmarks); ("loops", Int s.loops);
        ("gaps", Int s.gaps); ("lints", Int s.lints);
      ])

let run_all ?(cfg = Config.default) ?(seed = 7) ?benchmarks ?(json = false)
    ?oracle_budget
    ?(oracle_memo = fun (_ : string) f -> f ()) ppf =
  let benches =
    match benchmarks with
    | None -> WL.Mediabench.all
    | Some names -> List.map WL.Mediabench.find names
  in
  let per_bench =
    Pool.map_ordered
      (fun b -> explain_bench cfg ~seed ?oracle_budget ~oracle_memo b)
      benches
  in
  let reports = List.concat per_bench in
  let leaderboard =
    List.filter_map
      (fun r -> Option.map (row_of_report r) r.oracle)
      reports
  in
  let summary =
    {
      benchmarks = List.length benches;
      loops = List.length reports;
      gaps =
        List.fold_left
          (fun acc r ->
            if r.attribution.Attribution.ii > r.attribution.Attribution.mii
            then acc + 1
            else acc)
          0 reports;
      lints =
        List.fold_left
          (fun acc (r : loop_report) -> acc + List.length r.lints)
          0 reports;
      leaderboard;
    }
  in
  if json then
    Format.fprintf ppf "%s%!"
      (Json.document
         (Json.Obj
            [
              ("schema_version", Json.Int schema_version);
              ("summary", summary_json summary);
              ("loops", Json.List (List.map json_of_loop reports));
              ("leaderboard", Json.List (List.map json_of_row leaderboard));
            ]))
  else begin
    List.iter
      (fun bench_reports ->
        match bench_reports with
        | [] -> ()
        | first :: _ ->
            Format.fprintf ppf "%s@." first.bench;
            List.iter (fun r -> pp_loop ppf r) bench_reports;
            List.iter
              (fun (r : loop_report) ->
                List.iter (fun d -> Format.fprintf ppf "%a@." D.pp d) r.lints)
              bench_reports)
      per_bench;
    (match oracle_budget with
    | Some budget when leaderboard <> [] ->
        pp_leaderboard ppf leaderboard ~budget
    | _ -> ());
    Format.fprintf ppf
      "explain: %d benchmarks, %d loop reports, %d with II above MII, %d \
       missed-locality lints@."
      summary.benchmarks summary.loops summary.gaps summary.lints;
    match oracle_budget with
    | Some _ ->
        let count v =
          List.length
            (List.filter
               (fun row -> row.o_cert.Oracle.verdict = v)
               leaderboard)
        in
        let unsound =
          List.length
            (List.filter (fun row -> not (Oracle.sound row.o_cert)) leaderboard)
        in
        Format.fprintf ppf
          "oracle: %d/%d closed (%d optimal, %d hardware-bound, %d \
           heuristic-gap, %d unknown), %d soundness violations@."
          (List.length leaderboard - count Oracle.Unknown)
          (List.length leaderboard)
          (count Oracle.Optimal)
          (count Oracle.Hardware_bound)
          (count Oracle.Heuristic_gap)
          (count Oracle.Unknown)
          unsound
    | None -> ()
  end;
  summary
