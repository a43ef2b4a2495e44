(* verify: the checker's loop.  One operation analyzes and explains the
   whole suite at one seed, oracle on, with a fresh oracle memo:
   Analyze.run_all (linter, deep verifier, sim auditor on 4 backends)
   then Explain.run_all with the exact-II oracle on every II > MII loop.
   Every set-up and every timed operation analyzes seed S, so they all do
   the same work.  Cpsolver/Oracle, the deep verifier and the per-backend
   solo executor do most of the work here and almost none elsewhere. *)

module E = Vliw_experiments
module A = Vliw_analysis

type op = {
  analyze : A.Analyze.summary;
  explain : A.Explain.summary;
  analyze_s : float;
  explain_s : float;  (** oracle included *)
  oracle_s : float;
}

let verify_seed seed =
  Atomic.set Compiles.seed seed;
  let ctx = E.Context.create ~seed () in
  let oracle_s = ref 0.0 in
  let oracle_memo key f =
    E.Context.oracle_memo ctx key (fun () ->
        let r, dt = Measure.time (fun () -> Spans.with_span "oracle" key f) in
        oracle_s := !oracle_s +. dt;
        r)
  in
  let analyze, analyze_s =
    Measure.time (fun () ->
        Spans.with_span "analyze" "analyze" (fun () ->
            A.Analyze.run_all ~seed (Workload.null_ppf ())))
  in
  let explain, explain_s =
    Measure.time (fun () ->
        Spans.with_span "explain" "explain" (fun () ->
            A.Explain.run_all ~seed ~oracle_budget:A.Oracle.default_budget
              ~oracle_memo (Workload.null_ppf ())))
  in
  ( { analyze; explain; analyze_s; explain_s; oracle_s = !oracle_s },
    E.Context.memo_stats ctx )

let sound op =
  A.Analyze.ok op.analyze
  && List.for_all
       (fun r -> A.Oracle.sound r.A.Explain.o_cert)
       op.explain.A.Explain.leaderboard

let loops op = op.analyze.A.Analyze.loops + op.explain.A.Explain.loops

let layer_names =
  [
    ("analyze.share", "ratio");
    ("explain.share", "ratio");
    ("oracle.share", "ratio");
    ("oracle.certifications", "count");
    ("oracle.decisions", "count");
    ("oracle.conflicts", "count");
    ("oracle.unknown", "count");
    ("oracle.decided_share", "ratio");
  ]

let run (env : Workload.env) : Workload.outcome =
  let seed = env.Workload.seed in
  let set_up _ = verify_seed seed in
  let before = Workload.setups_before env set_up in
  let memo = snd (fst (List.hd before)) in
  let caps = Compiles.take () in
  let ops, window = Workload.timed_ops env (fun _ -> fst (set_up ())) in
  let after = Workload.setups_after env set_up in
  let setups = List.map snd (before @ after) in
  let durations = List.map snd ops in
  let unsound = List.filter (fun (op, _) -> not (sound op)) ops in
  let analyses =
    List.map (fun ((a, _), _) -> a) (before @ after) @ List.map fst ops
  in
  let total f = Measure.sum (List.map (fun (op, _) -> f op) ops) in
  let share f = Measure.ratio (total f) (Measure.sum durations) in
  (* Leaderboard counts are those of seed S. *)
  let certs =
    List.map
      (fun r -> r.A.Explain.o_cert)
      (fst (List.hd ops)).explain.A.Explain.leaderboard
  in
  let unknown =
    List.length
      (List.filter (fun c -> c.A.Oracle.verdict = A.Oracle.Unknown) certs)
  in
  let over_certs f = List.fold_left (fun acc c -> acc + f c) 0 certs in
  Workload.batch_outcome ~setups ~durations
    ~units:
      (total (fun op -> float_of_int (loops op))
      /. float_of_int (List.length ops))
    ~failed:(List.length unsound) ~window ~caps ~memo
    ~checks:
      [
        ( Printf.sprintf
            "seed %d, %d analyses: Analyze.ok and Oracle.sound on every \
             leaderboard row"
            seed (List.length analyses),
          List.for_all sound analyses );
      ]
    ~layers:
      Measure.
        [
          metric "analyze.share" "ratio" (share (fun op -> op.analyze_s));
          metric "explain.share" "ratio"
            (share (fun op -> op.explain_s -. op.oracle_s));
          metric "oracle.share" "ratio" (share (fun op -> op.oracle_s));
          count "oracle.certifications" (List.length certs);
          count "oracle.decisions" (over_certs (fun c -> c.A.Oracle.decisions));
          count "oracle.conflicts" (over_certs (fun c -> c.A.Oracle.conflicts));
          count "oracle.unknown" unknown;
          metric "oracle.decided_share" "ratio"
            (Measure.ratio
               (float_of_int (List.length certs - unknown))
               (float_of_int (List.length certs)));
        ]
