(** Shared machinery for the experiment drivers: compilation caching and
    the benchmark -> statistics runner.

    Every figure reuses compilations of the same (benchmark, target,
    unroll strategy, alignment) combination, so compiled loops are
    memoized per context on a thread-safe sharded single-flight table
    ({!Vliw_parallel.Memo}); a second table memoizes each compiled
    plan's execution-run address trace, so repeated sweeps over the
    same plan skip re-deriving the address stream; a third holds exact-II
    oracle certifications ({!oracle_memo}).  A fourth, the profile memo,
    runs each profile once: its key is the benchmark, the source loop's
    index, the unroll factor, the alignment, the seed and
    {!Vliw_arch.Config.profile_fingerprint} — exactly what a profile
    depends on — so every spec of a benchmark, and every {!with_cfg}
    sibling that differs only outside the cache geometry (buses,
    occupancy, latencies, AB shape), shares one profile per (loop,
    factor).  It stays out of {!memo_stats}.  One context can be shared
    by all worker domains of the parallel experiment engine.

    Every memo is bounded (FIFO eviction; see {!Vliw_parallel.Memo}) so
    fleet-scale sweeps cannot grow memory without bound: 1024 compile
    entries, 8192 traces, 1024 certifications and 4096 profiles, far
    above any single figure's working set.  Eviction only costs a
    recompute, never a result.

    Every simulation goes through {!run_batch}: the executor traverses
    the plan once and dispatches each resolved address to every cell,
    which is where the fig6 / traffic / AB-size sweeps get their
    wall-clock win, and {!run} is the one-cell case.  Batching happens
    inside the calling worker domain; drivers parallelize across plans
    via {!Vliw_parallel.Pool}. *)

type t

val create : ?cfg:Vliw_arch.Config.t -> ?seed:int -> unit -> t
(** [cfg] defaults to {!Vliw_arch.Config.default}, [seed] to 7. *)

val cfg : t -> Vliw_arch.Config.t

val with_cfg : t -> Vliw_arch.Config.t -> t
(** A sibling context for another machine configuration $(b,sharing)
    the memo tables — the design-space sweep compiles each
    schedule-relevant config once through one shared memo this way.
    Safe because every memo key embeds the config fingerprint. *)

val memo_stats : t -> (string * Vliw_parallel.Memo.stats) list
(** Hit/miss/eviction counters and resident sizes of the compile,
    address-trace and oracle memos (labelled ["compiles"], ["traces"]
    and ["oracles"]). *)

val oracle_memo :
  t ->
  string ->
  (unit -> Vliw_analysis.Oracle.certification) ->
  Vliw_analysis.Oracle.certification
(** Single-flight memo for exact-II certifications, for threading into
    {!Vliw_analysis.Explain.run_all} as its [oracle_memo] — a given
    (bench, loop, target, seed, budget, config) key is searched at most
    once per process regardless of [--jobs].  The key is built by the
    explain driver and already embeds the config fingerprint. *)

type spec = {
  target : Vliw_core.Pipeline.target;
  strategy : Vliw_core.Unroll_select.strategy;
  aligned : bool;
}

val interleaved :
  ?chains:bool ->
  ?strategy:Vliw_core.Unroll_select.strategy ->
  ?aligned:bool ->
  [ `Ibc | `Ipbc ] ->
  spec
(** Convenience constructor; defaults: chains on, selective unrolling,
    alignment on. *)

val cache_key : t -> Vliw_workloads.Benchspec.t -> spec -> string
(** The memo key for a (benchmark, spec) pair.  Includes the context's
    seed and a {!Vliw_arch.Config.fingerprint} of its configuration, so
    entries can never be shared across differing machine configs. *)

val compiled : t -> Vliw_workloads.Benchspec.t -> spec -> Vliw_core.Pipeline.compiled list
(** Compile (or fetch from cache) every loop of the benchmark.
    Thread-safe: the memo shard owning the key is mutex-guarded with
    per-key single-flight, so concurrent callers of the same key block
    until the first finishes rather than compiling twice, and callers
    of different keys usually proceed on independent shard locks. *)

type cell = {
  cell_arch : Vliw_sim.Machine.arch;
  cell_cfg : Vliw_arch.Config.t option;
  cell_ab_entries : int option;
  cell_hints : bool;
}
(** One memory-hierarchy point of a batched sweep: architecture, an
    optional full per-cell configuration (the design-space sweep's
    cache-geometry axis — must agree with the context's config on
    cluster count and interleaving factor, which the plan bakes in, and
    on block size, since the executor decodes each address once for the
    whole batch), an
    optional attraction-buffer capacity override applied on top, and
    whether the compiler's attractable hints are applied (with K
    derived from the cell's own AB capacity, Section 5.2). *)

val cell :
  ?cfg:Vliw_arch.Config.t ->
  ?ab_entries:int ->
  ?hints:bool ->
  Vliw_sim.Machine.arch ->
  cell
(** Convenience constructor; [hints] defaults to [false]. *)

val run_batch :
  t ->
  Vliw_workloads.Benchspec.t ->
  spec ->
  ?trip_cap:int ->
  cell list ->
  (Vliw_sim.Stats.t * (string * int) list) list
(** Compile the benchmark once, then simulate every cell in lockstep
    over a single traversal of each loop's access plan
    ({!Vliw_sim.Executor.run_loop_batched}).  Returns per-cell
    aggregated statistics and traffic counters, in cell order — each
    bit-identical to the same cell run as a one-cell batch.

    @raise Invalid_argument if a cell's full configuration fails
    {!Vliw_arch.Config.validate} or disagrees with the context's on
    cluster count, interleaving factor or block size.

    [trip_cap] (source iterations per loop; default unlimited) cuts
    every loop after [ceil (trip_cap / unroll_factor)] unrolled
    iterations — the design-space sweep's fidelity/wall-clock knob;
    counting source iterations keeps differently-unrolled plans
    simulating the same work. *)

val run_batch_loops :
  t ->
  Vliw_workloads.Benchspec.t ->
  spec ->
  ?trip_cap:int ->
  cell list ->
  (Vliw_core.Pipeline.compiled * Vliw_sim.Stats.t list) list
(** Per-loop variant of {!run_batch}: for each compiled loop, the
    statistics of every cell (cell order), for drivers that break
    results down by loop. *)

val run :
  t ->
  Vliw_workloads.Benchspec.t ->
  spec ->
  arch:Vliw_sim.Machine.arch ->
  unit ->
  Vliw_sim.Stats.t
(** Compile and execute the whole benchmark on one memory system under
    the context's configuration, aggregating loop statistics: the
    aggregate of the one-cell {!run_batch} [[cell arch]].  AB-capacity
    overrides and attractable hints are {!cell} fields of
    {!run_batch}. *)

val weighted_balance : Vliw_core.Pipeline.compiled list -> float
(** Loop-weight-weighted mean of the schedules' workload balance — the
    paper's per-benchmark WB. *)

val amean : (string * float list) list -> string * float list
(** Arithmetic-mean row over the given rows. *)
