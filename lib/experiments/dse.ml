(* The design-space exploration autopilot: fleet-scale Config sweeps.

   The paper evaluates ONE machine point (Table 2); this driver chews
   through a grid of them — clusters x interleaving factor x register
   buses x attraction-buffer capacity x cache geometry — and reports the
   Pareto frontier of IPBC cycles vs inter-cluster traffic vs a stylized
   hardware-cost model.  Three structural facts keep the cost scaling
   with DISTINCT SCHEDULES, not total cells:

   1. Plan groups.  The scheduler can only see four of the swept
      dimensions (clusters, interleaving, bus count, bus occupancy; see
      Mrt) — cache geometry and AB shape are simulation-side, because
      profiling runs at the sweep's shared base geometry.  All cells of
      a (clusters, interleaving, occupancy, buses) group therefore share
      one compiled plan, fetched once per benchmark through the shared
      sharded memo (Context.with_cfg keeps one memo across every config;
      keys embed the fingerprint).

   2. Lockstep batches.  Each plan group's cells ride ONE batched
      traversal of each loop's access plan per benchmark
      (Executor.run_loop_batched): the plan, factor masks and memoized
      address trace are shared, only cache state, stall clocks and
      statistics are per-cell.  Groups fan out across the domain pool;
      Pool.map_ordered keeps the output byte-identical at any --jobs.

   3. Constraint-guided pruning.  Bus levels ascend per family
      (clusters, interleaving, occupancy); a level whose whole-suite
      compile never REJECTED a placement on a register-bus window
      (Pipeline.bus_window_rejections = 0 for every loop) provably
      compiles byte-identically at every higher bus count — the bus
      check is the pipeline's only reader of the bus count, so a
      rejection-free search takes the identical path with more buses.
      Higher levels then simulate identically and cost strictly more
      (the cost model is strictly increasing in buses), i.e. every
      skipped cell is dominated by its twin at the rejection-free level:
      pruning can never drop a frontier point, which the golden suite
      asserts against the exhaustive sweep.  Attribution's
      binding-constraint output names what binds INSTEAD of buses in the
      prune log.

      Note the rule deliberately does NOT prune on Attribution's bounds
      alone ("cluster pressure binds, skip more buses"): transient bus
      conflicts redirect placements even in loops whose final bound
      tower shows bus slack, so bound-based pruning drops real frontier
      points.  Counting actual rejections is the sound strengthening. *)

module Config = Vliw_arch.Config
module Pipeline = Vliw_core.Pipeline
module Pool = Vliw_parallel.Pool
module Memo = Vliw_parallel.Memo
module Stats = Vliw_sim.Stats
module Machine = Vliw_sim.Machine
module Table = Vliw_report.Table
module Json = Vliw_report.Json
module Attribution = Vliw_analysis.Attribution
module WL = Vliw_workloads

(* ------------------------------------------------------------- grids *)

type grid = {
  clusters : int list;
  interleavings : int list;
  buses : int list;
  occupancies : int list;
  cache_sizes : int list;
  associativities : int list;
  ab_capacities : int list;  (* 0 = no attraction buffers *)
  max_unroll_cap : int;
      (* families whose N x I exceeds this are skipped: the selective
         unroller's candidate set (and compile time) grows with the
         maximum unroll, and N x I = 32 is already an order of magnitude
         slower to compile than the paper's 16 *)
}

let default_grid =
  {
    clusters = [ 2; 4 ];
    interleavings = [ 2; 4; 8 ];
    buses = [ 1; 2; 4; 8; 16 ];
    occupancies = [ 2 ];
    cache_sizes = [ 2048; 4096; 8192; 16384 ];
    associativities = [ 1; 2; 4 ];
    ab_capacities = [ 0; 2; 4; 8; 16; 32 ];
    max_unroll_cap = 16;
  }

(* Small enough for `dune runtest` / CI yet with a bus level to prune:
   2-cluster, interleave-2 plans are bus-light, so the whole suite
   compiles rejection-free at 8 buses and the 16-bus level is skipped. *)
let smoke_grid =
  {
    clusters = [ 2 ];
    interleavings = [ 2 ];
    buses = [ 2; 8; 16 ];
    occupancies = [ 2 ];
    cache_sizes = [ 4096; 8192 ];
    associativities = [ 2 ];
    ab_capacities = [ 0; 16 ];
    max_unroll_cap = 16;
  }

(* ------------------------------------------------------- enumeration *)

type family = {
  f_clusters : int;
  f_interleaving : int;
  f_occupancy : int;
  f_levels : (Config.t * (Config.t * int) list) list;
      (* ascending bus order: (plan config, cells); a cell is its full
         simulation config plus the grid's AB capacity (0 = AB off, in
         which case the config keeps the base AB fields unused) *)
}

let plan_config base ~clusters ~interleaving ~buses ~occupancy =
  {
    base with
    Config.n_clusters = clusters;
    interleaving_factor = interleaving;
    n_reg_buses = buses;
    bus_occupancy = occupancy;
  }

let cell_config plan ~cache_size ~associativity ~ab =
  let c = { plan with Config.cache_size; associativity } in
  if ab > 0 then { c with Config.ab_entries = ab } else c

let valid c = Result.is_ok (Config.validate c)

(* Every emitted configuration is Config.validate-clean by
   construction: candidate plan and cell configs are filtered, so a
   grid may freely mix dimensions that only combine pairwise (the
   qcheck property pins this down). *)
let enumerate ?(base = Config.default) grid =
  let buses = List.sort_uniq compare grid.buses in
  List.concat_map
    (fun clusters ->
      List.concat_map
        (fun interleaving ->
          List.filter_map
            (fun occupancy ->
              if clusters * interleaving > grid.max_unroll_cap then None
              else
                let levels =
                  List.filter_map
                    (fun b ->
                      let plan =
                        plan_config base ~clusters ~interleaving ~buses:b
                          ~occupancy
                      in
                      if not (valid plan) then None
                      else
                        let cells =
                          List.concat_map
                            (fun cache_size ->
                              List.concat_map
                                (fun associativity ->
                                  List.filter_map
                                    (fun ab ->
                                      let c =
                                        cell_config plan ~cache_size
                                          ~associativity ~ab
                                      in
                                      if valid c then Some (c, ab) else None)
                                    grid.ab_capacities)
                                grid.associativities)
                            grid.cache_sizes
                        in
                        Some (plan, cells))
                    buses
                in
                if levels = [] then None
                else Some { f_clusters = clusters; f_interleaving = interleaving;
                            f_occupancy = occupancy; f_levels = levels })
            grid.occupancies)
        grid.interleavings)
    grid.clusters

let grid_cells fams =
  List.fold_left
    (fun acc f ->
      List.fold_left (fun acc (_, cells) -> acc + List.length cells) acc
        f.f_levels)
    0 fams

(* --------------------------------------------------------- cost model *)

(* A stylized relative-area model — NOT from the paper, just a monotone
   tie-breaker that makes "more hardware" cost more: per-cluster FU/RF
   area, cache SRAM, way comparators, bank decoders (clusters x
   interleaving banks), bus wiring (strictly increasing in the bus
   count — the pruning-soundness argument needs skipped higher-bus
   twins to cost strictly more), and AB CAM entries per cluster. *)
let hardware_cost ~clusters ~interleaving ~buses ~occupancy ~cache_size
    ~associativity ~ab =
  (4.0 *. float_of_int clusters)
  +. (float_of_int cache_size /. 1024.0)
  +. (0.5 *. float_of_int (associativity - 1))
  +. (0.25 *. float_of_int (clusters * interleaving))
  +. (float_of_int (buses * occupancy))
  +. (0.125 *. float_of_int (ab * clusters))

(* ------------------------------------------------------------ results *)

type cell_result = {
  r_clusters : int;
  r_interleaving : int;
  r_buses : int;
  r_occupancy : int;
  r_cache_size : int;
  r_associativity : int;
  r_ab : int;
  r_cycles : int;
  r_traffic : int;
  r_cost : float;
}

let cell_label r =
  Printf.sprintf "c%d·i%d·b%d·o%d %dK/%dw ab%d" r.r_clusters r.r_interleaving
    r.r_buses r.r_occupancy
    (r.r_cache_size / 1024)
    r.r_associativity r.r_ab

type pruned_family = {
  p_family : string;  (* Config.short_name of the rejection-free level *)
  p_at_buses : int;
  p_skipped_buses : int list;
  p_skipped_cells : int;
  p_binding : string;  (* what binds instead of buses, per Attribution *)
}

type result = {
  grid_cells_total : int;
  plan_groups : int;
  compiled_groups : int;
  evaluated : cell_result list;
  frontier : cell_result list;
  pruned : pruned_family list;
  pruned_cells : int;
}

(* --------------------------------------------------------------- sweep *)

let spec = Context.interleaved `Ipbc

(* Inter-cluster traffic: words served from remote modules plus
   attraction-buffer fills — both cross the inter-cluster buses.  Block
   fills come from the next memory level, not other clusters. *)
let traffic_of summary =
  let get k = match List.assoc_opt k summary with Some v -> v | None -> 0 in
  get "remote words" + get "attractions"

(* The dominant binding constraint over a family's loops at one bus
   level — the prune log's "what binds instead of buses". *)
let dominant_binding plan compiled_lists =
  let tally = Hashtbl.create 8 in
  let total = ref 0 in
  List.iter
    (List.iter (fun c ->
         let b = (Attribution.attribute plan c).Attribution.binding in
         incr total;
         Hashtbl.replace tally b
           (1 + Option.value ~default:0 (Hashtbl.find_opt tally b))))
    compiled_lists;
  let best =
    Hashtbl.fold
      (fun b n acc ->
        match acc with
        | Some (_, m) when m >= n -> acc
        | _ -> Some (b, n))
      tally None
  in
  match best with
  | None -> "none"
  | Some (b, n) -> Printf.sprintf "%s (%d/%d loops)" b n !total

let sweep ?(grid = default_grid) ?benches ?(prune = true) ?(trip_cap = 512)
    ctx =
  let benches =
    match benches with Some b -> b | None -> WL.Mediabench.all
  in
  let base = Context.cfg ctx in
  let fams = Array.of_list (enumerate ~base grid) in
  let nf = Array.length fams in
  let n_levels =
    Array.fold_left (fun a f -> max a (List.length f.f_levels)) 0 fams
  in
  (* Phase A: bus-ascension compiles, level-synchronous so each level's
     (family x benchmark) compiles fan out across the pool together.
     compiled_up_to.(fi) = how many bus levels of family fi were
     compiled; alive.(fi) = false once a rejection-free level proved the
     rest of the family's levels redundant. *)
  let alive = Array.make nf true in
  let compiled_up_to = Array.make nf 0 in
  let pruned = ref [] in
  for level = 0 to n_levels - 1 do
    let units =
      List.concat
        (List.filteri
           (fun fi _ -> alive.(fi) && level < List.length fams.(fi).f_levels)
           (Array.to_list (Array.mapi (fun fi f -> (fi, f)) fams))
        |> List.map (fun (fi, _) -> List.map (fun b -> (fi, b)) benches))
    in
    let rejections =
      Pool.map_ordered
        (fun (fi, bench) ->
          let plan, _ = List.nth fams.(fi).f_levels level in
          let c = Context.with_cfg ctx plan in
          let compiled = Context.compiled c bench spec in
          ( fi,
            List.fold_left
              (fun acc (cm : Pipeline.compiled) ->
                acc + cm.Pipeline.bus_window_rejections)
              0 compiled ))
        units
    in
    let per_family = Hashtbl.create 8 in
    List.iter
      (fun (fi, r) ->
        Hashtbl.replace per_family fi
          (r + Option.value ~default:0 (Hashtbl.find_opt per_family fi)))
      rejections;
    (* Families in index order — Hashtbl.iter order would leak into the
       pruned log and break jobs-independence of the rendered output. *)
    for fi = 0 to nf - 1 do
      match Hashtbl.find_opt per_family fi with
      | None -> ()
      | Some total_rej ->
        compiled_up_to.(fi) <- level + 1;
        let f = fams.(fi) in
        let skipped =
          List.filteri (fun l _ -> l > level) f.f_levels
        in
        if prune && total_rej = 0 && skipped <> [] then begin
          alive.(fi) <- false;
          let plan, _ = List.nth f.f_levels level in
          let compiled_lists =
            List.map
              (fun b -> Context.compiled (Context.with_cfg ctx plan) b spec)
              benches
          in
          pruned :=
            {
              p_family = Config.short_name plan;
              p_at_buses = plan.Config.n_reg_buses;
              p_skipped_buses =
                List.map (fun (p, _) -> p.Config.n_reg_buses) skipped;
              p_skipped_cells =
                List.fold_left
                  (fun acc (_, cells) -> acc + List.length cells)
                  0 skipped;
              p_binding = dominant_binding plan compiled_lists;
            }
            :: !pruned
        end
    done
  done;
  (* Phase B: batched simulations of every compiled plan group, one
     (group x benchmark) unit per pool task.  Group order is the
     enumeration order, so the evaluated-cell list (and hence the
     frontier) is a pure function of the grid and the prune decisions —
     never of the job count. *)
  let groups =
    List.concat
      (List.concat
         (List.init nf (fun fi ->
              List.init compiled_up_to.(fi) (fun level -> [ (fi, level) ]))))
  in
  let sim_units =
    List.concat_map
      (fun (fi, level) -> List.map (fun b -> (fi, level, b)) benches)
      groups
  in
  let sims =
    Pool.map_ordered
      (fun (fi, level, bench) ->
        let plan, cells = List.nth fams.(fi).f_levels level in
        let c = Context.with_cfg ctx plan in
        let bcells =
          List.map
            (fun (ccfg, ab) ->
              Context.cell ~cfg:ccfg
                (Machine.Word_interleaved { attraction_buffers = ab > 0 }))
            cells
        in
        List.map
          (fun (stats, traffic) ->
            (Stats.total_cycles stats, traffic_of traffic))
          (Context.run_batch c bench spec ~trip_cap bcells))
      sim_units
  in
  (* Fold the per-benchmark per-cell numbers back into group totals. *)
  let by_unit = List.combine sim_units sims in
  let evaluated =
    List.concat_map
      (fun (fi, level) ->
        let plan, cells = List.nth fams.(fi).f_levels level in
        let n = List.length cells in
        let cyc = Array.make n 0 and tra = Array.make n 0 in
        List.iter
          (fun ((fi', level', _), per_cell) ->
            if fi' = fi && level' = level then
              List.iteri
                (fun j (c, t) ->
                  cyc.(j) <- cyc.(j) + c;
                  tra.(j) <- tra.(j) + t)
                per_cell)
          by_unit;
        List.mapi
          (fun j (ccfg, ab) ->
            {
              r_clusters = plan.Config.n_clusters;
              r_interleaving = plan.Config.interleaving_factor;
              r_buses = plan.Config.n_reg_buses;
              r_occupancy = plan.Config.bus_occupancy;
              r_cache_size = ccfg.Config.cache_size;
              r_associativity = ccfg.Config.associativity;
              r_ab = ab;
              r_cycles = cyc.(j);
              r_traffic = tra.(j);
              r_cost =
                hardware_cost ~clusters:plan.Config.n_clusters
                  ~interleaving:plan.Config.interleaving_factor
                  ~buses:plan.Config.n_reg_buses
                  ~occupancy:plan.Config.bus_occupancy
                  ~cache_size:ccfg.Config.cache_size
                  ~associativity:ccfg.Config.associativity ~ab;
            })
          cells)
      groups
  in
  let frontier =
    List.map (fun p -> p.Pareto.tag)
      (Pareto.frontier
         (List.map
            (fun r ->
              Pareto.point r
                [|
                  float_of_int r.r_cycles; float_of_int r.r_traffic; r.r_cost;
                |])
            evaluated))
  in
  let pruned = List.rev !pruned in
  {
    grid_cells_total = grid_cells (Array.to_list fams);
    plan_groups =
      Array.fold_left (fun a f -> a + List.length f.f_levels) 0 fams;
    compiled_groups = Array.fold_left ( + ) 0 compiled_up_to;
    evaluated;
    frontier;
    pruned;
    pruned_cells =
      List.fold_left (fun a p -> a + p.p_skipped_cells) 0 pruned;
  }

(* ----------------------------------------------------------- reporting *)

let frontier_table r =
  let rows =
    List.map
      (fun c ->
        ( cell_label c,
          [ float_of_int c.r_cycles; float_of_int c.r_traffic; c.r_cost ] ))
      r.frontier
  in
  Table.make
    ~title:
      (Printf.sprintf "DSE Pareto frontier (%d of %d evaluated cells)"
         (List.length r.frontier) (List.length r.evaluated))
    ~columns:[ "cycles"; "traffic"; "cost" ]
    rows

let pp_human ppf r =
  Format.fprintf ppf
    "grid: %d cells in %d plan groups; compiled %d groups, evaluated %d \
     cells, pruning skipped %d cells@."
    r.grid_cells_total r.plan_groups r.compiled_groups
    (List.length r.evaluated) r.pruned_cells;
  List.iter
    (fun p ->
      Format.fprintf ppf
        "pruned %s: buses {%s} skipped (%d cells) — zero bus-window \
         rejections at %d buses; binds on %s@."
        p.p_family
        (String.concat ", " (List.map string_of_int p.p_skipped_buses))
        p.p_skipped_cells p.p_at_buses p.p_binding)
    r.pruned;
  Table.render ppf (frontier_table r);
  Format.pp_print_newline ppf ()

let pp_json ppf ~wall_s ~cells_per_s ~memo r =
  let open Json in
  let pruned pr =
    Obj
      [
        ("family", String pr.p_family); ("at_buses", Int pr.p_at_buses);
        ("skipped_buses", List (List.map (fun b -> Int b) pr.p_skipped_buses));
        ("skipped_cells", Int pr.p_skipped_cells);
        ("binding", String pr.p_binding);
      ]
  in
  let memo_entry (name, (s : Memo.stats)) =
    ( name,
      Obj
        [
          ("size", Int s.Memo.size); ("hits", Int s.Memo.hits);
          ("misses", Int s.Memo.misses); ("evictions", Int s.Memo.evictions);
        ] )
  in
  let frontier c =
    Obj
      [
        ("clusters", Int c.r_clusters); ("interleaving", Int c.r_interleaving);
        ("buses", Int c.r_buses); ("occupancy", Int c.r_occupancy);
        ("cache_size", Int c.r_cache_size);
        ("associativity", Int c.r_associativity); ("ab", Int c.r_ab);
        ("cycles", Int c.r_cycles); ("traffic", Int c.r_traffic);
        ("cost", Fixed (3, c.r_cost));
      ]
  in
  Format.fprintf ppf "%s%!"
    (document
       (Obj
          [
            ("schema", Int 1); ("grid_cells", Int r.grid_cells_total);
            ("plan_groups", Int r.plan_groups);
            ("compiled_groups", Int r.compiled_groups);
            ("evaluated_cells", Int (List.length r.evaluated));
            ("pruned_cells", Int r.pruned_cells);
            ("wall_s", Fixed (3, wall_s));
            ("cells_per_s", Fixed (1, cells_per_s));
            ("pruned", List (List.map pruned r.pruned));
            ("memo", Obj (List.map memo_entry memo));
            ("frontier", List (List.map frontier r.frontier));
          ]))
