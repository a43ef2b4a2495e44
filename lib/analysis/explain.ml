module Config = Vliw_arch.Config
module Loop = Vliw_ir.Loop
module Pipeline = Vliw_core.Pipeline
module WL = Vliw_workloads
module Pool = Vliw_parallel.Pool
module D = Diagnostic

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

let json_of_loop (r : loop_report) =
  let a = r.attribution in
  let bound (b : Attribution.bound) =
    Printf.sprintf {|{"name":"%s","value":%d}|}
      (D.json_escape b.Attribution.name)
      b.Attribution.value
  in
  let budget =
    String.concat ","
      (List.map
         (fun (t : Attribution.term) ->
           Printf.sprintf {|{"cause":"%s","cycles":%d}|}
             (D.json_escape t.Attribution.cause)
             t.Attribution.cycles)
         a.Attribution.budget)
  in
  let considered =
    String.concat ","
      (List.map (fun (f, est) -> Printf.sprintf "[%d,%d]" f est) r.considered)
  in
  let locality =
    match r.locality with
    | None -> "null"
    | Some b ->
        Printf.sprintf
          {|{"n_local":%d,"n_remote":%d,"n_mixed":%d,"trip_local":%d,"trip_remote":%d,"trip_total":%d}|}
          b.Locality.n_local b.Locality.n_remote b.Locality.n_mixed
          b.Locality.trip_local b.Locality.trip_remote b.Locality.trip_total
  in
  let lints = String.concat "," (List.map D.to_json r.lints) in
  let oracle =
    match r.oracle with
    | None -> "null" (* not attempted: no budget given or II = MII *)
    | Some c ->
        Printf.sprintf
          {|{"verdict":"%s","minimal_ii":%s,"proven_floor":%d,"decisions":%d,"conflicts":%d}|}
          (Oracle.verdict_to_string c.Oracle.verdict)
          (match c.Oracle.minimal_ii with
          | Some m -> string_of_int m
          | None -> "null")
          c.Oracle.infeasible_below c.Oracle.decisions c.Oracle.conflicts
  in
  Printf.sprintf
    {|{"bench":"%s","loop":"%s","target":"%s","unroll":%d,"considered":[%s],"ii":%d,"mii":%d,"mii_floor":%d,"rec_mii":%d,"rec_mii_floor":%d,"res_mii":%d,"cluster_bound":%s,"copy_bound":%s,"bus_bound":%d,"binding":"%s","budget":[%s],"locality":%s,"lints":[%s],"oracle":%s}|}
    (D.json_escape r.bench) (D.json_escape r.loop)
    (D.json_escape (Pipeline.target_to_string r.target))
    r.unroll_factor considered a.Attribution.ii a.Attribution.mii
    a.Attribution.mii_floor a.Attribution.rec_mii
    a.Attribution.rec_mii_floor a.Attribution.res_mii
    (bound a.Attribution.cluster_bound)
    (bound a.Attribution.copy_bound)
    a.Attribution.bus_bound
    (D.json_escape a.Attribution.binding)
    budget locality lints oracle

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
  let c = row.o_cert in
  let witness =
    match c.Oracle.witness with
    | None -> "null"
    | Some _ ->
        Printf.sprintf {|{"errors":%d,"warnings":%d}|}
          (D.n_errors c.Oracle.witness_diags)
          (D.n_warnings c.Oracle.witness_diags)
  in
  let probes =
    String.concat ","
      (List.map
         (fun (p : Oracle.probe) ->
           Printf.sprintf
             {|{"ii":%d,"result":"%s","decisions":%d,"conflicts":%d}|}
             p.Oracle.p_ii
             (match p.Oracle.p_sat with
             | Oracle.Feasible _ -> "sat"
             | Oracle.Infeasible -> "unsat"
             | Oracle.Out_of_budget -> "budget")
             p.Oracle.p_stats.Cpsolver.decisions
             p.Oracle.p_stats.Cpsolver.conflicts)
         c.Oracle.probes)
  in
  Printf.sprintf
    {|{"bench":"%s","loop":"%s","target":"%s","unroll":%d,"heuristic_ii":%d,"attribution_mii":%d,"floor":%d,"minimal_ii":%s,"infeasible_below":%d,"verdict":"%s","witness":%s,"probes":[%s],"decisions":%d,"conflicts":%d,"sound":%b}|}
    (D.json_escape row.o_bench) (D.json_escape row.o_loop)
    (D.json_escape row.o_target) row.o_unroll c.Oracle.heuristic_ii
    row.o_attr_mii c.Oracle.floor
    (match c.Oracle.minimal_ii with
    | Some m -> string_of_int m
    | None -> "null")
    c.Oracle.infeasible_below
    (Oracle.verdict_to_string c.Oracle.verdict)
    witness probes c.Oracle.decisions c.Oracle.conflicts (Oracle.sound c)

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
  if json then begin
    Format.fprintf ppf
      "{@.  \"schema_version\": %d,@.  \"summary\": \
       {\"benchmarks\":%d,\"loops\":%d,\"gaps\":%d,\"lints\":%d},@."
      schema_version summary.benchmarks summary.loops summary.gaps
      summary.lints;
    Format.fprintf ppf "  \"loops\": [@.";
    List.iteri
      (fun i r ->
        Format.fprintf ppf "    %s%s@." (json_of_loop r)
          (if i < List.length reports - 1 then "," else ""))
      reports;
    Format.fprintf ppf "  ],@.";
    Format.fprintf ppf "  \"leaderboard\": [@.";
    List.iteri
      (fun i row ->
        Format.fprintf ppf "    %s%s@." (json_of_row row)
          (if i < List.length leaderboard - 1 then "," else ""))
      leaderboard;
    Format.fprintf ppf "  ]@.}@."
  end
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
