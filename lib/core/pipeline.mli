(** The complete compilation pipeline of the paper:
    unroll -> assign latencies -> order -> assign clusters & schedule,
    with the unrolling factor chosen by scheduling every candidate and
    keeping the fastest estimate (selective unrolling).

    The [profiler] callback stands for the profile run: given a
    (possibly unrolled) loop it returns hit rates and per-cluster access
    distributions measured on the *profile* data set
    ({!Vliw_workloads.Profiling} provides it). *)

type target =
  | Interleaved of { heuristic : [ `Ibc | `Ipbc ]; chains : bool }
      (** the word-interleaved cache processor; [chains = false] is the
          no-chains ablation *)
  | Unified of { slow : bool }  (** BASE algorithm, 1- or 5-cycle cache *)
  | Multivliw  (** coherent caches, scheduled like BASE with local
                   hit/miss latencies *)

type compiled = {
  source : Vliw_ir.Loop.t;
  target : target;
  unroll_factor : int;
  loop : Vliw_ir.Loop.t;  (** the unrolled loop actually scheduled *)
  profile : Profile.t;  (** profile of the unrolled loop's operations *)
  latencies : int array;
  chains : Chains.t;
  schedule : Vliw_sched.Schedule.t;
  estimated_cycles : int;
  considered : (int * int) list;
      (** (unroll factor, estimated Texec) of every candidate the
          selective search scheduled, ascending factor order — the
          provenance of [unroll_factor].  Empty when the record was built
          outside {!compile} (e.g. for a single forced factor). *)
  bus_window_rejections : int;
      (** How many register-bus window probes the whole selective search
          rejected: the sum over every candidate factor of its
          {!candidate} [rejections], each the
          {!Vliw_sched.Mrt.bus_rejections} delta across that
          candidate's II attempts.  A shared candidate contributes the
          count it was scheduled with, so the sum does not depend on
          what was shared.  Zero proves the schedule is byte-identical
          under any larger [n_reg_buses] — the bus check is the
          pipeline's only reader of the bus count — which is the
          design-space sweep's sound pruning condition.  Zero
          (vacuously) when the record was built outside {!compile}. *)
}

exception Scheduling_failed of string

val check_hook : (Vliw_arch.Config.t -> compiled -> unit) ref
(** Debug hook invoked on every {!compile} result before it is returned
    (default: no-op).  [Vliw_analysis.Analyze.install_check_hook] points
    it at the linter + deep schedule verifier — the CLI's [--check]
    flag.  The installed function must be thread-safe: compiles run
    concurrently on the experiment engine's worker domains. *)

val mode_of_target : Vliw_arch.Config.t -> target -> Latency_assign.mode

val allow_cross_cluster_mem : target -> bool
(** True for architectures whose hardware orders memory accesses
    globally (unified cache, multiVLIW coherence) and for the no-chains
    ablation. *)

val target_to_string : target -> string

val compile :
  Vliw_arch.Config.t ->
  target:target ->
  strategy:Unroll_select.strategy ->
  profiler:(Vliw_ir.Loop.t -> Profile.t) ->
  Vliw_ir.Loop.t ->
  compiled
(** {!compile_shared} that schedules every candidate itself.
    @raise Scheduling_failed if no candidate factor schedules (does not
    happen for well-formed loops — the engine escalates the II). *)

type candidate = {
  latencies : int array;
  schedule : Vliw_sched.Schedule.t;
  rejections : int;
      (** bus-window rejections of this candidate's schedule search *)
}
(** What scheduling one unrolled candidate produces: everything of a
    {!compiled} that the unrolled loop, its profile and its chains do
    not determine cheaply.  It depends on the source loop, the factor,
    the target, the profile and the configuration — not on the unroll
    strategy, which only picks the factors. *)

val compile_shared :
  Vliw_arch.Config.t ->
  target:target ->
  strategy:Unroll_select.strategy ->
  profiler:(Vliw_ir.Loop.t -> Profile.t) ->
  share:(factor:int -> (unit -> candidate) -> candidate) ->
  Vliw_ir.Loop.t ->
  compiled
(** The selective search with the scheduling of each candidate factor
    handed to [share ~factor schedule]: [share] returns [schedule ()]
    (one {!Vliw_parallel.Cancel} work unit, then the candidate's profile
    run, latency assignment and {!Vliw_sched.Engine.schedule}), or a
    candidate the same [schedule] produced before for this source loop,
    factor, target and configuration — the caller keys and stores them
    ({!Vliw_analysis.Context} shares them across unroll strategies).
    Unrolling, profiling and chain building run either way, so the
    result is the same whatever [share] reuses.
    @raise Scheduling_failed as {!compile}. *)
