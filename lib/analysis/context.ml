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
  oracles : Oracle.certification Memo.t;
      (* exact-II certifications, keyed by
         bench/loop/target/seed/budget/config — see Explain.explain_bench *)
  profiles : Vliw_core.Profile.t Memo.t;
      (* profile runs, keyed by bench/alignment/seed/profile fingerprint
         and Profiling.memoized's loop index and unroll factor *)
  candidates : Pipeline.candidate Memo.t;
      (* scheduled unroll candidates, keyed by bench/loop index/factor/
         target/alignment/seed/config — see [compile_uncached] *)
  sims : (Sim.Stats.t array * (string * int) list) Memo.t;
      (* simulated cells: each loop's statistics and the traffic
         summary, keyed by compile key/cell/trip cap — see
         [run_batch_loops]; shared values, so read-only *)
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
    candidates = Memo.create ~cap:8192 ();
    sims = Memo.create ~cap:8192 ();
  }

let cfg t = t.cfg
let seed t = t.seed

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

(* A candidate's key: its benchmark, target, alignment, seed and config
   (the scope, one per compile), then its loop index and factor. *)
let candidate_scope t bench spec =
  Printf.sprintf "%s|%s|%b|seed=%d|cfg=%s|" bench.WL.Benchspec.name
    (Pipeline.target_to_string spec.target)
    spec.aligned t.seed
    (Config.fingerprint t.cfg)

let candidate_key scope ~index ~factor =
  Printf.sprintf "%sloop=%d|x%d" scope index factor

let shared_candidate t bench spec ~index ~factor =
  Memo.find_opt t.candidates
    (candidate_key (candidate_scope t bench spec) ~index ~factor)

(* A profile depends on the loop, its unroll factor, the profile-run
   layout and the cache geometry — not on the target, chains, unroll
   strategy, latencies or buses — so its key carries only those, and
   every spec and every [with_cfg] sibling of equal geometry shares it.

   A scheduled candidate depends on the loop, the factor, the target,
   its profile and the whole configuration — not on the unroll
   strategy, which only picks the factors — so the specs of a benchmark
   that differ only in strategy share every factor they have in common
   (the single-factor strategies' factors are all among Selective's).
   A compile publishes its candidates only once every loop is done:
   one that its deadline cancels leaves none behind, so a retry does
   (and is charged) the same work as the first attempt. *)
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
  let candidates = candidate_scope t bench spec and fresh = ref [] in
  let compiled =
    List.mapi
      (fun index source ->
        let share ~factor schedule =
          let key = candidate_key candidates ~index ~factor in
          match Memo.find_opt t.candidates key with
          | Some c -> c
          | None ->
              let c = schedule () in
              fresh := (key, c) :: !fresh;
              c
        in
        Pipeline.compile_shared t.cfg ~target:spec.target
          ~strategy:spec.strategy
          ~profiler:(WL.Profiling.memoized ~memo t.cfg layout ~index source)
          ~share source)
      (WL.Benchspec.loops bench)
  in
  List.iter
    (fun (key, c) -> ignore (Memo.get t.candidates key (fun () -> c)))
    (List.rev !fresh);
  compiled

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

(* What a cell's result depends on beyond the compile ([scope], the
   compile key and the trip cap): its arch, its own config, its AB
   override and its hints flag. *)
let cell_key scope cl =
  Printf.sprintf "%s|%s|cfg=%s|ab=%s|hints=%b" scope
    (Sim.Machine.arch_to_string cl.cell_arch)
    (match cl.cell_cfg with Some c -> Config.fingerprint c | None -> "-")
    (match cl.cell_ab_entries with Some n -> string_of_int n | None -> "-")
    cl.cell_hints

(* One batch over [compiled]: each cell's per-loop statistics and its
   traffic summary after the last loop, in cell order. *)
let simulate t bench spec ?trip_cap compiled cells =
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
    Array.of_list
      (List.mapi
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
           Sim.Executor.run_loop_batched t.cfg bcells c ~addr_trace
             ?trip:(trip_of c) ())
         compiled)
  in
  List.mapi
    (fun j _ ->
      ( Array.map (fun stats -> stats.(j)) per_loop,
        Sim.Machine.traffic_summary machines.(j) ))
    cells

(* Each cell is simulated once per context: a cell the memo holds is
   read back, and the others, each once, run as one batch — a cell's
   results do not depend on its batch-mates.  The batch publishes only
   once it is done, so one that its deadline cancels leaves nothing
   behind; a memoized cell charges no work unit and looks up no
   trace. *)
let run_batch_loops t bench spec ?trip_cap cells =
  List.iter (check_cell t) cells;
  let compiled = compiled t bench spec in
  let scope =
    Printf.sprintf "%s|trip=%s" (cache_key t bench spec)
      (match trip_cap with
      | Some cap when cap > 0 -> string_of_int cap
      | _ -> "-")
  in
  let keys = List.map (cell_key scope) cells in
  (* each distinct key once: [Some] its memoized result, or [None] and
     left to simulate *)
  let found = Hashtbl.create 8 in
  let missing =
    List.filter
      (fun (key, _) ->
        (not (Hashtbl.mem found key))
        &&
        let r = Memo.find_opt t.sims key in
        Hashtbl.add found key r;
        Option.is_none r)
      (List.combine keys cells)
  in
  if missing <> [] then
    List.iter2
      (fun (key, _) r ->
        Hashtbl.replace found key (Some r);
        ignore (Memo.get t.sims key (fun () -> r)))
      missing
      (simulate t bench spec ?trip_cap compiled (List.map snd missing));
  let per_cell =
    List.map (fun key -> Option.get (Hashtbl.find found key)) keys
  in
  ( List.mapi
      (fun index c -> (c, List.map (fun (stats, _) -> stats.(index)) per_cell))
      compiled,
    List.map snd per_cell )

let run_batch t bench spec ?trip_cap cells =
  let per_loop, traffic = run_batch_loops t bench spec ?trip_cap cells in
  let aggs = List.map (fun _ -> Sim.Stats.create ()) cells in
  List.iter
    (fun (_, stats) ->
      List.iter2 (fun agg s -> Sim.Stats.accumulate ~into:agg s) aggs stats)
    per_loop;
  List.combine aggs traffic

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
