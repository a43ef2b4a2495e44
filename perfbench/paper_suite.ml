(* paper-suite: what a reproducer waits for.  One operation renders the
   paper's artefacts, as bench/main.exe does, on one fresh Context at the
   seed — a compile-bound run, since every artefact recompiles on a
   fresh context.  The two wide-machine ablations (2/4/8 clusters and
   interleave 2/4/8, about 15 s each) are longer than a whole run may
   last, so one of their cells stands in for them (see [wide]); the csv
   export is left out. *)

module E = Vliw_experiments

(* One cell of the cluster-count ablation: gsmdec on an 8-cluster
   machine, IPBC + attraction buffers, as Ablation_clusters computes it.
   At 8 clusters the unroll factor reaches 32 and Latency_assign takes
   most of the compile time; gsmdec's 0.7 s is the path the ablation
   spends its time on (its dearest cell, epicdec, takes 12 s alone). *)
let wide_bench = "gsmdec"
let wide_clusters = 8

let wide ppf ctx =
  let cfg =
    { (E.Context.cfg ctx) with Vliw_arch.Config.n_clusters = wide_clusters }
  in
  let st =
    E.Context.run
      (E.Context.with_cfg ctx cfg)
      (Vliw_workloads.Mediabench.find wide_bench)
      (E.Context.interleaved `Ipbc)
      ~arch:(Vliw_sim.Machine.Word_interleaved { attraction_buffers = true })
      ()
  in
  Format.fprintf ppf "%s on %d clusters, IPBC + Attraction Buffers: %d cycles@."
    wide_bench wide_clusters (Vliw_sim.Stats.total_cycles st)

let artefacts =
  [
    ("table1", fun ppf _ -> E.Table1.run ppf);
    ("table2", E.Table2.run);
    ("ex1", E.Worked_example.run);
    ("fig4", E.Fig4.run);
    ("fig5", E.Fig5.run);
    ("fig6", E.Fig6.run);
    ("fig7", E.Fig7.run);
    ("fig8", E.Fig8.run);
    ("ablation-hints", E.Ablation_hints.run);
    ("ablation-chains", E.Ablation_chains.run);
    ("ablation-traffic", E.Ablation_traffic.run);
    ("ablation-unroll", E.Ablation_unroll.run);
    ("ablation-clusters-cell", wide);
  ]

let smoke_artefacts = [ "table2"; "fig4" ]

let render (env : Workload.env) =
  let ctx = E.Context.create ~seed:env.Workload.seed () in
  let buf = Buffer.create 65536 in
  let ppf = Format.formatter_of_buffer buf in
  List.iter
    (fun (name, run) ->
      if (not env.Workload.smoke) || List.mem name smoke_artefacts then
        Spans.with_span "artefact" name (fun () ->
            run ppf ctx;
            Format.pp_print_flush ppf ()))
    artefacts;
  (Buffer.contents buf, E.Context.memo_stats ctx)

let n_artefacts (env : Workload.env) =
  if env.Workload.smoke then List.length smoke_artefacts
  else List.length artefacts

let run (env : Workload.env) : Workload.outcome =
  Atomic.set Compiles.seed env.Workload.seed;
  (* Set-up: a warm-up render on a fresh context. *)
  let before = Workload.setups_before env (fun _ -> render env) in
  let reference, memo = fst (List.hd before) in
  let caps = Compiles.take () in
  let ops, window = Workload.timed_ops env (fun _ -> fst (render env)) in
  let after = Workload.setups_after env (fun _ -> render env) in
  let setups = List.map snd (before @ after) in
  let durations = List.map snd ops in
  let divergent = List.filter (fun (out, _) -> out <> reference) ops in
  Workload.batch_outcome ~setups ~durations
    ~units:(float_of_int (n_artefacts env))
    ~failed:(List.length divergent) ~window ~caps ~memo
    ~checks:
      [
        ( Printf.sprintf "%d renders byte-identical to the set-up render"
            (List.length ops),
          divergent = [] );
      ]
    ~layers:[]
