(** Design-space exploration autopilot: fleet-scale [Config] sweeps
    with Pareto frontiers and constraint-guided pruning.

    Enumerates a grid of clusters x interleaving factor x register
    buses x attraction-buffer capacity x cache geometry, compiles each
    distinct (benchmark, schedule-relevant config) once through the
    shared sharded memo, runs each plan group's cells as lockstep
    batches ({!Vliw_sim.Executor.run_loop_batched}) fanned across the
    domain pool, and reports the Pareto frontier of IPBC cycles vs
    inter-cluster traffic vs a stylized hardware-cost model.  Output is
    byte-identical at any [--jobs].

    Pruning: bus levels ascend per (clusters, interleaving, occupancy)
    family; a level whose whole-suite compile incurred zero register-bus
    window rejections ({!Vliw_core.Pipeline.compiled}'s
    [bus_window_rejections]) provably compiles byte-identically at
    every higher bus count, whose cells are then dominated (identical
    cycles and traffic, strictly higher cost) — so pruning never drops
    a frontier point.  {!Vliw_analysis.Attribution} names the
    constraint that binds instead of buses in the prune log. *)

type grid = {
  clusters : int list;
  interleavings : int list;
  buses : int list;
  occupancies : int list;
  cache_sizes : int list;
  associativities : int list;
  ab_capacities : int list;  (** [0] = no attraction buffers *)
  max_unroll_cap : int;
      (** skip families whose [clusters * interleaving] (the maximum
          unroll) exceeds this — selective-unroll compile time explodes
          past the paper's 16 *)
}

val default_grid : grid
(** 2 or 4 clusters x interleave {2,4,8} (capped at N x I <= 16) x
    buses {1,2,4,8,16} x cache {2..16 KB} x associativity {1,2,4} x AB
    {0,2,..,32}: 1800 cells in 25 plan groups. *)

val smoke_grid : grid
(** A seconds-scale grid for `dune runtest` / CI with one bus level to
    prune. *)

type family = {
  f_clusters : int;
  f_interleaving : int;
  f_occupancy : int;
  f_levels : (Vliw_arch.Config.t * (Vliw_arch.Config.t * int) list) list;
      (** ascending bus order: (plan config, cells); each cell is its
          full simulation config plus the grid AB capacity (0 = off) *)
}

val enumerate : ?base:Vliw_arch.Config.t -> grid -> family list
(** Expand a grid into plan-group families.  Every emitted plan and
    cell configuration is [Config.validate]-clean by construction —
    invalid dimension combinations are filtered, not errors (the qcheck
    property pins this down). *)

type cell_result = {
  r_clusters : int;
  r_interleaving : int;
  r_buses : int;
  r_occupancy : int;
  r_cache_size : int;
  r_associativity : int;
  r_ab : int;
  r_cycles : int;  (** total IPBC cycles summed over the benchmarks *)
  r_traffic : int;  (** remote words + attractions, summed *)
  r_cost : float;
      (** a stylized relative-area model (not from the paper), strictly
          increasing in the bus count, which the pruning-soundness
          argument relies on *)
}

val cell_label : cell_result -> string

type pruned_family = {
  p_family : string;
  p_at_buses : int;
  p_skipped_buses : int list;
  p_skipped_cells : int;
  p_binding : string;
}

type result = {
  grid_cells_total : int;
  plan_groups : int;
  compiled_groups : int;
  evaluated : cell_result list;  (** enumeration order; prune-skipped
                                     cells excluded *)
  frontier : cell_result list;  (** Pareto-minimal evaluated cells *)
  pruned : pruned_family list;
  pruned_cells : int;
}

val sweep :
  ?grid:grid ->
  ?benches:Vliw_workloads.Benchspec.t list ->
  ?prune:bool ->
  ?trip_cap:int ->
  Context.t ->
  result
(** Run the sweep on the context's memo tables ([benches] defaults to
    the whole suite).  [trip_cap] (source iterations per loop; [<= 0]
    = unlimited; default 512) is the fidelity/wall-clock knob — every
    cell of a group is cut identically, so relative comparisons stand.
    Deterministic: the result is a pure function of (grid, benches,
    prune, trip_cap, context config/seed) — never of [--jobs]. *)

val pp_human : Format.formatter -> result -> unit
(** Prune log + frontier table + one summary line. *)

val pp_json :
  Format.formatter ->
  wall_s:float ->
  cells_per_s:float ->
  memo:(string * Vliw_parallel.Memo.stats) list ->
  result ->
  unit
(** Machine-readable document: totals, prune log, memo hit/miss/eviction
    counters, the full frontier, and the wall-clock figures. *)
