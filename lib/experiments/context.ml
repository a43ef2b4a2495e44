module Config = Vliw_arch.Config
module Loop = Vliw_ir.Loop
module Memo = Vliw_parallel.Memo
module Pipeline = Vliw_core.Pipeline
module Unroll_select = Vliw_core.Unroll_select
module Schedule = Vliw_sched.Schedule
module WL = Vliw_workloads
module Sim = Vliw_sim

(* Every memo is shared by every worker domain of the parallel
   experiment engine; Vliw_parallel.Memo provides the sharded,
   single-flight concurrency discipline (no key is ever computed
   twice, waiters block per shard rather than on one global lock). *)
type t = {
  cfg : Config.t;
  seed : int;
  compiles : Pipeline.compiled list Memo.t;
  traces : int array Memo.t;
      (* per-plan address traces, keyed by (compile key, loop index) *)
  oracles : Vliw_analysis.Oracle.certification Memo.t;
      (* exact-II certifications, keyed by
         bench/loop/target/seed/budget/config — see Explain.explain_bench *)
  profiles : Vliw_core.Profile.t Memo.t;
      (* profile runs, keyed by bench/alignment/seed/profile fingerprint
         and Profiling.memoized's loop index and unroll factor *)
}

(* Memo bounds: far above what any single-figure run touches (the
   whole suite across every spec is under a hundred compile keys) yet a
   hard ceiling for fleet-scale sweeps, whose distinct (benchmark,
   config) keys scale with the grid.  Eviction only costs a recompute,
   so results never depend on the caps. *)
let create ?(cfg = Config.default) ?(seed = 7) () =
  {
    cfg;
    seed;
    compiles = Memo.create ~cap:1024 ();
    traces = Memo.create ~cap:8192 ();
    oracles = Memo.create ~cap:1024 ();
    profiles = Memo.create ~cap:4096 ();
  }

let cfg t = t.cfg

(* The design-space sweep's entry point into the memo machinery: a
   sibling context for another machine configuration SHARING the memo
   tables.  Safe because every key embeds the configuration fingerprint
   — entries of different configs can coexist but never collide. *)
let with_cfg t cfg = { t with cfg }

let memo_stats t =
  [
    ("compiles", Memo.stats t.compiles);
    ("traces", Memo.stats t.traces);
    ("oracles", Memo.stats t.oracles);
  ]

(* The explain driver threads this through its workers so a (loop,
   budget, config) certification is only ever searched once per process,
   whatever --jobs is; single-flight means concurrent requesters of the
   same key block on one search rather than racing it. *)
let oracle_memo t key f = Memo.get t.oracles key f

type spec = {
  target : Pipeline.target;
  strategy : Unroll_select.strategy;
  aligned : bool;
}

let interleaved ?(chains = true) ?(strategy = Unroll_select.Selective)
    ?(aligned = true) heuristic =
  { target = Pipeline.Interleaved { heuristic; chains }; strategy; aligned }

(* The config fingerprint (and seed) make the key self-contained: a memo
   entry can never leak across differing machine configurations even if
   contexts are ever pooled or serialized. *)
let cache_key t bench spec =
  Printf.sprintf "%s|%s|%s|%b|seed=%d|cfg=%s" bench.WL.Benchspec.name
    (Pipeline.target_to_string spec.target)
    (Unroll_select.strategy_to_string spec.strategy)
    spec.aligned t.seed
    (Config.fingerprint t.cfg)

(* A profile depends on the loop, its unroll factor, the profile-run
   layout and the cache geometry — not on the target, chains, unroll
   strategy, latencies or buses — so its key carries only those, and
   every spec and every [with_cfg] sibling of equal geometry shares it. *)
let compile_uncached t bench spec =
  let layout =
    WL.Layout.create t.cfg ~aligned:spec.aligned ~run:WL.Layout.Profile_run
      ~seed:t.seed
  in
  let scope =
    Printf.sprintf "%s|aligned=%b|seed=%d|pcfg=%s|" bench.WL.Benchspec.name
      spec.aligned t.seed
      (Config.profile_fingerprint t.cfg)
  in
  let memo key f = Memo.get t.profiles (scope ^ key) f in
  List.mapi
    (fun index source ->
      Pipeline.compile t.cfg ~target:spec.target ~strategy:spec.strategy
        ~profiler:(WL.Profiling.memoized ~memo t.cfg layout ~index source)
        source)
    (WL.Benchspec.loops bench)

let compiled t bench spec =
  Memo.get t.compiles (cache_key t bench spec) (fun () ->
      compile_uncached t bench spec)

(* The execution-run address stream of one compiled loop, memoized per
   (benchmark, spec, loop).  Addresses depend on the layout only through
   alignment, the seed and [Config.max_unroll] — none of which the
   per-cell knobs (AB capacity, backend choice) can change — so the
   trace is keyed and derived on the context's base configuration and
   shared by every configuration the plan is swept against. *)
let trace t bench spec ~index (c : Pipeline.compiled) =
  let key = Printf.sprintf "%s|loop=%d|trace" (cache_key t bench spec) index in
  Memo.get t.traces key (fun () ->
      let exec_layout =
        WL.Layout.create t.cfg ~aligned:spec.aligned
          ~run:WL.Layout.Execution_run ~seed:t.seed
      in
      Sim.Executor.address_trace c
        ~addr_of:(WL.Layout.addr_fn exec_layout c.Pipeline.loop.Loop.ddg))

let attractable_flags cfg (c : Pipeline.compiled) =
  Vliw_core.Hints.attractable cfg c.Pipeline.loop.Loop.ddg
    ~profile:c.Pipeline.profile ~schedule:c.Pipeline.schedule

(* ------------------------------------------------------------------ *)
(* The runner: many cache configurations over one compiled plan.

   A cell is one memory-hierarchy point of a sweep.  All cells of a
   batch share the compiled plan and its memoized address trace; each
   keeps its own machine across every loop of the benchmark (cache
   contents legitimately survive from loop to loop) and its own
   statistics.  A solo run is the one-cell batch.  Batching happens
   *within* the calling worker domain — the experiment drivers
   parallelize across plans and batch the configurations inside. *)

type cell = {
  cell_arch : Sim.Machine.arch;
  cell_cfg : Config.t option;
  cell_ab_entries : int option;
  cell_hints : bool;
}

let cell ?cfg ?ab_entries ?(hints = false) arch =
  {
    cell_arch = arch;
    cell_cfg = cfg;
    cell_ab_entries = ab_entries;
    cell_hints = hints;
  }

(* The full configuration one cell simulates under: its own config when
   given (the design-space sweep's cache-geometry axis), the context's
   otherwise, with the AB-capacity override applied on top either
   way. *)
let cell_cfg t cl =
  let base = match cl.cell_cfg with Some c -> c | None -> t.cfg in
  match cl.cell_ab_entries with
  | None -> base
  | Some n -> { base with Config.ab_entries = n }

(* A cell config may vary everything simulation-side, but it must be a
   machine the cache models can build, and agree with the plan on what
   the executor shares across cells: the cluster count and interleaving
   factor the plan bakes in, and the block size of its one address
   decode per batch. *)
let check_cell t cl =
  let c = cell_cfg t cl in
  (match Config.validate c with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Context: invalid batch cell config: " ^ msg));
  if
    c.Config.n_clusters <> t.cfg.Config.n_clusters
    || c.Config.interleaving_factor <> t.cfg.Config.interleaving_factor
    || c.Config.block_size <> t.cfg.Config.block_size
  then
    invalid_arg
      "Context: batch cell config disagrees with the plan on cluster count, \
       interleaving factor or block size"

let batch_machines_and_loops t bench spec ?trip_cap cells =
  List.iter (check_cell t) cells;
  let machines =
    Array.of_list
      (List.map
         (fun cl -> Sim.Machine.create (cell_cfg t cl) cl.cell_arch)
         cells)
  in
  let cells_a = Array.of_list cells in
  (* [trip_cap] counts SOURCE iterations, so differently-unrolled plans
     simulate the same amount of source work (up to the last partial
     unrolled iteration): the per-plan cut is ceil(cap / unroll). *)
  let trip_of (c : Pipeline.compiled) =
    match trip_cap with
    | None -> None
    | Some cap when cap <= 0 -> None
    | Some cap ->
        let uf = max 1 c.Pipeline.unroll_factor in
        Some ((cap + uf - 1) / uf)
  in
  let per_loop =
    List.mapi
      (fun index (c : Pipeline.compiled) ->
        let addr_trace = trace t bench spec ~index c in
        let bcells =
          Array.mapi
            (fun j cl ->
              {
                Sim.Executor.machine = machines.(j);
                attractable =
                  (if cl.cell_hints then
                     Some (attractable_flags (cell_cfg t cl) c)
                   else None);
              })
            cells_a
        in
        let stats =
          Sim.Executor.run_loop_batched t.cfg bcells c ~addr_trace
            ?trip:(trip_of c) ()
        in
        (c, Array.to_list stats))
      (compiled t bench spec)
  in
  (machines, per_loop)

let run_batch_loops t bench spec ?trip_cap cells =
  snd (batch_machines_and_loops t bench spec ?trip_cap cells)

let run_batch t bench spec ?trip_cap cells =
  let machines, per_loop = batch_machines_and_loops t bench spec ?trip_cap cells in
  let aggs = Array.map (fun _ -> Sim.Stats.create ()) machines in
  List.iter
    (fun (_, stats) ->
      List.iteri
        (fun j s -> Sim.Stats.accumulate ~into:aggs.(j) s)
        stats)
    per_loop;
  Array.to_list
    (Array.mapi
       (fun j agg -> (agg, Sim.Machine.traffic_summary machines.(j)))
       aggs)

let run t bench spec ~arch () =
  fst (List.hd (run_batch t bench spec [ cell arch ]))

let weighted_balance cs =
  let total_w =
    List.fold_left
      (fun acc (c : Pipeline.compiled) -> acc +. c.Pipeline.loop.Loop.weight)
      0.0 cs
  in
  let sum =
    List.fold_left
      (fun acc (c : Pipeline.compiled) ->
        acc
        +. (c.Pipeline.loop.Loop.weight
           *. Schedule.workload_balance c.Pipeline.schedule))
      0.0 cs
  in
  if total_w = 0.0 then 0.0 else sum /. total_w

let amean rows =
  match rows with
  | [] -> ("AMEAN", [])
  | (_, first) :: _ ->
      let n = List.length rows in
      let sums = Array.make (List.length first) 0.0 in
      List.iter
        (fun (_, values) ->
          List.iteri (fun i v -> sums.(i) <- sums.(i) +. v) values)
        rows;
      ( "AMEAN",
        Array.to_list (Array.map (fun s -> s /. float_of_int n) sums) )
