(* Driver for `vliw_repro analyze --concurrency`.  See mli. *)

module Sync = Vliw_parallel.Sync
module Pool = Vliw_parallel.Pool
module Memo = Vliw_parallel.Memo
module Cancel = Vliw_parallel.Cancel
module Serve = Vliw_service.Serve
module D = Vliw_analysis.Diagnostic
module Json = Vliw_report.Json
module T = Sync.Trace

type summary = {
  trace_events : int;
  trace_threads : int;
  scenarios : int;
  executions : int;
  errors : int;
  warnings : int;
}

let default_seed = 42L

(* ---------------- recorded workload 1: pool + memo under real domains *)

exception Crash_flight

let pool_and_memo_workload () =
  (* The pool path: real worker domains even on a 1-core host, a
     parallel map, then the shutdown join-all. *)
  let pool = Pool.create ~clamp:false ~jobs:2 () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      ignore (Pool.map pool (fun x -> x * x) [ 1; 2; 3; 4; 5; 6; 7; 8 ]));
  (* Memo contention: three domains over overlapping keys with a cap
     small enough to force evictions. *)
  let memo = Memo.create ~shards:2 ~cap:4 () in
  let worker i () =
    for k = 0 to 7 do
      let key = Printf.sprintf "k%d" ((k + i) mod 6) in
      ignore (Memo.get memo key (fun () -> k * k))
    done
  in
  let hs = List.init 3 (fun i -> Sync.spawn (worker i)) in
  List.iter Sync.join hs;
  (* A crashing flight must release its claim... *)
  (match Memo.get memo "crash" (fun () -> raise Crash_flight) with
  | (_ : int) -> ()
  | exception Crash_flight -> ());
  ignore (Memo.get memo "crash" (fun () -> 1));
  (* ...and so must a cancelled one. *)
  let h =
    Sync.spawn (fun () ->
        let tok = Cancel.create ~budget:0 in
        match
          Cancel.with_token tok (fun () ->
              Memo.get memo "cancelled" (fun () ->
                  Cancel.tick ~stage:"concsan cancelled flight" 1;
                  2))
        with
        | (_ : int) -> ()
        | exception Cancel.Cancelled _ -> ())
  in
  Sync.join h;
  ignore (Memo.get memo "cancelled" (fun () -> 2));
  ignore (Memo.stats memo)

(* ---------------- recorded workload 2: a scripted serve session *)

let serve_requests =
  [
    {|{"req":"health"}|};
    {|{"req":"compile","bench":"gsmdec"}|};
    {|{"req":"simulate","bench":"gsmdec","trip_cap":32}|};
    {|{"req":"compile","bench":"gsmdec"}|};
    {|{"req":"compile","bench":"rasta","deadline":3}|};
    {|this is not json|};
    {|{"req":"drain"}|};
  ]

let serve_workload () =
  let r, w = Unix.pipe () in
  let payload = String.concat "\n" serve_requests ^ "\n" in
  let b = Bytes.of_string payload in
  ignore (Unix.write w b 0 (Bytes.length b));
  Unix.close w;
  let null = open_out Filename.null in
  Fun.protect
    ~finally:(fun () -> close_out_noerr null)
    (fun () ->
      ignore (Serve.run ~jobs:2 ~queue_cap:4 ~input:r ~output:null ()))

(* ---------------- scenario exploration *)

let explore_all ~seed = List.map (Vsched.explore ~seed) Scenarios.all

let scenario_diags (outcomes : Vsched.outcome list) =
  List.concat_map
    (fun (o : Vsched.outcome) ->
      let fails =
        List.map
          (fun (f : Vsched.failure) ->
            D.error ~pass:f.Vsched.pass ~where:o.Vsched.name
              "%s [schedule: %s]" f.Vsched.message f.Vsched.schedule)
          o.Vsched.failures
      in
      if o.Vsched.truncated then
        D.warn ~pass:"concsan/explore-budget" ~where:o.Vsched.name
          "execution budget exhausted after %d executions — coverage \
           incomplete"
          o.Vsched.executions
        :: fails
      else fails)
    outcomes

let render_scenarios buf (outcomes : Vsched.outcome list) =
  List.iter
    (fun (o : Vsched.outcome) ->
      Buffer.add_string buf
        (Printf.sprintf
           "scenario %-22s executions=%-5d steps=%-6d truncated=%s \
            failures=%d\n"
           o.Vsched.name o.Vsched.executions o.Vsched.steps
           (if o.Vsched.truncated then "yes" else "no")
           (List.length o.Vsched.failures));
      List.iter
        (fun (f : Vsched.failure) ->
          Buffer.add_string buf
            (Printf.sprintf "  failure %s: %s\n    schedule: %s\n"
               f.Vsched.pass f.Vsched.message f.Vsched.schedule))
        o.Vsched.failures)
    outcomes

let scenario_report ?(seed = default_seed) () =
  let buf = Buffer.create 1024 in
  render_scenarios buf (explore_all ~seed);
  Buffer.contents buf

(* ---------------- report *)

let trace_stats (tr : T.t) =
  (T.n_events tr, List.length tr.T.threads)

let json_of_run ~seed ~traces ~outcomes ~diags ~summary =
  let open Json in
  let trace (name, ev, th) =
    Obj [ ("name", String name); ("events", Int ev); ("threads", Int th) ]
  in
  let failure (f : Vsched.failure) =
    Obj
      [
        ("pass", String f.Vsched.pass); ("message", String f.Vsched.message);
        ("schedule", String f.Vsched.schedule);
      ]
  in
  let scenario (o : Vsched.outcome) =
    Obj
      [
        ("name", String o.Vsched.name); ("executions", Int o.Vsched.executions);
        ("steps", Int o.Vsched.steps); ("truncated", Bool o.Vsched.truncated);
        ("failures", List (List.map failure o.Vsched.failures));
      ]
  in
  Obj
    [
      ( "concsan",
        Obj
          [
            ("schema_version", Int 1); ("seed", Int64 seed);
            ("traces", List (List.map trace traces));
            ("scenarios", List (List.map scenario outcomes));
            ("diagnostics", List (List.map D.to_json diags));
            ( "summary",
              Obj
                [
                  ("trace_events", Int summary.trace_events);
                  ("trace_threads", Int summary.trace_threads);
                  ("scenarios", Int summary.scenarios);
                  ("executions", Int summary.executions);
                  ("errors", Int summary.errors);
                  ("warnings", Int summary.warnings);
                ] );
          ] );
    ]

let run ?(seed = default_seed) ?(json = false) ppf =
  let (), pool_trace = Sync.record_scope pool_and_memo_workload in
  let (), serve_trace = Sync.record_scope serve_workload in
  let trace_diags = Hbrace.analyze pool_trace @ Hbrace.analyze serve_trace in
  let outcomes = explore_all ~seed in
  let diags = trace_diags @ scenario_diags outcomes in
  let pe, pt = trace_stats pool_trace in
  let se, st = trace_stats serve_trace in
  let summary =
    {
      trace_events = pe + se;
      trace_threads = pt + st;
      scenarios = List.length outcomes;
      executions =
        List.fold_left (fun a (o : Vsched.outcome) -> a + o.Vsched.executions)
          0 outcomes;
      errors = D.n_errors diags;
      warnings = D.n_warnings diags;
    }
  in
  let traces = [ ("pool+memo", pe, pt); ("serve", se, st) ] in
  if json then
    Format.fprintf ppf "%s@."
      (Json.to_string (json_of_run ~seed ~traces ~outcomes ~diags ~summary))
  else begin
    Format.fprintf ppf "== concurrency sanitizer (seed %Ld) ==@." seed;
    List.iter
      (fun (name, ev, th) ->
        Format.fprintf ppf "trace %-10s %d threads, %d events@." name th ev)
      traces;
    let buf = Buffer.create 1024 in
    render_scenarios buf outcomes;
    Format.fprintf ppf "%s" (Buffer.contents buf);
    if diags = [] then Format.fprintf ppf "diagnostics: none — clean@."
    else begin
      Format.fprintf ppf "diagnostics:@.";
      D.pp_report ppf diags
    end;
    Format.fprintf ppf "summary: %d error(s), %d warning(s) across %d \
                        scenario(s) / %d execution(s)@."
      summary.errors summary.warnings summary.scenarios summary.executions
  end;
  summary

let run_mutations ?(seed = default_seed) ppf =
  let muts = Mutations.all ~seed in
  let caught_n = ref 0 in
  List.iter
    (fun (m : Mutations.t) ->
      let diags = m.Mutations.m_run () in
      let caught =
        List.exists (fun d -> d.D.pass = m.Mutations.m_expected) diags
      in
      if caught then incr caught_n;
      Format.fprintf ppf "mutant %-24s %s (expected %s, got %d diagnostics)@."
        m.Mutations.m_name
        (if caught then "CAUGHT" else "MISSED")
        m.Mutations.m_expected (List.length diags))
    muts;
  Format.fprintf ppf "mutation suite: %d/%d caught@." !caught_n
    (List.length muts);
  !caught_n = List.length muts
