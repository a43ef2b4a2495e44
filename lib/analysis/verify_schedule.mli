(** Deep schedule verifier: everything {!Vliw_sched.Schedule.validate}
    checks, re-derived independently of {!Vliw_sched.Mrt}, plus the
    copy-dataflow, lifetime and register-pressure analyses the quick
    validator skips.

    Pass ids (family ["sched/"]):
    - ["sched/validate"] — {!Vliw_sched.Schedule.validate} rejected the
      schedule (error);
    - ["sched/range"] — placement arrays of the wrong length, negative
      start cycle, or cluster outside [0, n_clusters) (error);
    - ["sched/dependence"] — a same-cluster dependence edge violated
      modulo II (error; independent slack recomputation);
    - ["sched/mem-colocate"] — a memory-dependence edge spans clusters
      although the target serializes memory per cluster (error);
    - ["sched/copy-coverage"] — a cross-cluster register consumer not
      reached by any timely copy (error);
    - ["sched/copy-cluster"] — a copy departing from a cluster other
      than its producer's, or to its own cluster (error);
    - ["sched/copy-early"] — a copy issued before its producer's value
      exists (error);
    - ["sched/orphan-copy"] — a copy no consumer reads (warn);
    - ["sched/ambiguous-copy"] — a consumer reached by more than one
      timely copy of the same value (info: legal redundancy);
    - ["sched/fu-capacity"] — per-class functional units oversubscribed
      in some (cluster, cycle mod II) slot (error);
    - ["sched/issue-width"] — issue slots oversubscribed, copies
      included (error);
    - ["sched/bus-capacity"] — half-frequency register-bus windows
      oversubscribed; the [bus_occupancy]-cycle windows are re-derived
      here from the copy list alone (error);
    - ["sched/lifetime"] — a value lives longer than the II, so several
      iterations' instances overlap (info: the simulator's stall-on-use
      model needs no modulo variable expansion, but the count sizes the
      rotating-register requirement of real hardware);
    - ["sched/regpressure"] — per-cluster MaxLive above the
      64-register budget (warn). *)

val verify :
  Vliw_arch.Config.t ->
  Vliw_ir.Ddg.t ->
  latency:(int -> int) ->
  ?allow_cross_cluster_mem:bool ->
  ?where:string ->
  Vliw_sched.Schedule.t ->
  Diagnostic.t list
