(* dse-sweep: the architect's loop.  One operation is Dse.sweep over a
   slice of the default grid on a fresh Context at the seed: compiles
   once per plan group through the shared memo, then simulates each
   group's 72 cache/AB cells as lockstep batches — the workload where
   Executor.run_loop_batched does most of the work. *)

module E = Vliw_experiments
module Dse = E.Dse

(* Two families of the default grid (2 clusters, interleave 2 and 4)
   with its cache x associativity x AB axes, 72 cells per plan group,
   and three bus levels, the top one of which pruning skips in both
   families: 432 cells, 288 evaluated in 4 plan groups. *)
let grid =
  {
    Dse.default_grid with
    Dse.clusters = [ 2 ];
    interleavings = [ 2; 4 ];
    buses = [ 4; 8; 16 ];
  }

let trip_cap = 512

let sweep (env : Workload.env) =
  let ctx = E.Context.create ~seed:env.Workload.seed () in
  let grid = if env.Workload.smoke then Dse.smoke_grid else grid in
  let r =
    Spans.with_span "dse" "sweep" (fun () -> Dse.sweep ~grid ~trip_cap ctx)
  in
  (r, E.Context.memo_stats ctx)

let spec = E.Context.interleaved `Ipbc

(* Re-evaluate one evaluated cell outside the sweep, on [fresh] (a
   context the sweep never touched): its plan, its cache configuration
   and AB capacity, every benchmark. *)
let recheck fresh grid (r : Dse.cell_result) =
  let base = E.Context.cfg fresh in
  let matches (plan, (ccfg, ab)) =
    let open Vliw_arch.Config in
    plan.n_clusters = r.Dse.r_clusters
    && plan.interleaving_factor = r.Dse.r_interleaving
    && plan.n_reg_buses = r.Dse.r_buses
    && plan.bus_occupancy = r.Dse.r_occupancy
    && ccfg.cache_size = r.Dse.r_cache_size
    && ccfg.associativity = r.Dse.r_associativity
    && ab = r.Dse.r_ab
  in
  let cells =
    List.concat_map
      (fun f ->
        List.concat_map
          (fun (plan, cells) -> List.map (fun cell -> (plan, cell)) cells)
          f.Dse.f_levels)
      (Dse.enumerate ~base grid)
  in
  match List.find_opt matches cells with
  | None -> false
  | Some (plan, (ccfg, ab)) ->
      let ctx = E.Context.with_cfg fresh plan in
      let cell =
        E.Context.cell ~cfg:ccfg
          (Vliw_sim.Machine.Word_interleaved { attraction_buffers = ab > 0 })
      in
      let cycles, traffic =
        List.fold_left
          (fun (cy, tr) bench ->
            match E.Context.run_batch ctx bench spec ~trip_cap [ cell ] with
            | [ (st, summary) ] ->
                let get k =
                  Option.value ~default:0 (List.assoc_opt k summary)
                in
                ( cy + Vliw_sim.Stats.total_cycles st,
                  tr + get "remote words" + get "attractions" )
            | _ -> (cy, tr))
          (0, 0) Vliw_workloads.Mediabench.all
      in
      cycles = r.Dse.r_cycles && traffic = r.Dse.r_traffic

let layer_names =
  [
    ("dse.cells_evaluated", "count");
    ("dse.cells_pruned", "count");
    ("dse.plan_groups", "count");
  ]

let run (env : Workload.env) : Workload.outcome =
  Atomic.set Compiles.seed env.Workload.seed;
  let before = Workload.setups_before env (fun _ -> sweep env) in
  let reference, memo = fst (List.hd before) in
  let caps = Compiles.take () in
  let ops, window = Workload.timed_ops env (fun _ -> fst (sweep env)) in
  let after = Workload.setups_after env (fun _ -> sweep env) in
  let setups = List.map snd (before @ after) in
  let durations = List.map snd ops in
  let same (r : Dse.result) =
    r.Dse.evaluated = reference.Dse.evaluated
    && r.Dse.frontier = reference.Dse.frontier
    && r.Dse.pruned_cells = reference.Dse.pruned_cells
  in
  let divergent = List.filter (fun (r, _) -> not (same r)) ops in
  let grid = if env.Workload.smoke then Dse.smoke_grid else grid in
  let sampled =
    Compiles.sample ~seed:env.Workload.seed 8 reference.Dse.evaluated
  in
  let evaluated = List.length reference.Dse.evaluated in
  Workload.batch_outcome ~setups ~durations
    ~units:(float_of_int reference.Dse.grid_cells_total)
    ~failed:(List.length divergent) ~window ~caps ~memo
    ~checks:
      [
        ( Printf.sprintf "%d sweeps identical to the set-up sweep"
            (List.length ops),
          divergent = [] );
        ( Printf.sprintf "evaluated %d + pruned %d = %d grid cells" evaluated
            reference.Dse.pruned_cells reference.Dse.grid_cells_total,
          evaluated + reference.Dse.pruned_cells
          = reference.Dse.grid_cells_total );
        ( Printf.sprintf "%d sampled cells reproduce on a fresh context"
            (List.length sampled),
          List.for_all
            (recheck (E.Context.create ~seed:env.Workload.seed ()) grid)
            sampled );
      ]
    ~layers:
      [
        Measure.count "dse.cells_evaluated" evaluated;
        Measure.count "dse.cells_pruned" reference.Dse.pruned_cells;
        Measure.count "dse.plan_groups" reference.Dse.plan_groups;
      ]
