(** Simulator-invariant auditor: conservation laws the lockstep executor
    and the memory-system backends must satisfy on every run, plus the
    staged-address-plan cross-check.

    Pass ids (family ["sim/"]):
    - ["sim/access-count"] — accesses (hits + misses + combined) differ
      from [trip_count x memory ops]: the executor issued, merged or
      dropped an access it should not have (error);
    - ["sim/compute"] — compute cycles differ from
      [(trip + SC - 1) x II] (error);
    - ["sim/local-hit-stall"] — stall cycles attributed to local hits:
      impossible, every promised latency at least covers a local hit
      (error);
    - ["sim/negative"] — a negative statistics counter (error);
    - ["sim/class"] — an access class the backend cannot produce (a
      unified cache has no remote accesses; the multiVLIW's fills are
      local misses) (error);
    - ["sim/factor-bound"] — a Figure-5 factor counted more often than
      remote hits occurred (error);
    - ["sim/remote-balance"] — interleaved bus words differ from
      remote hits + remote misses (error);
    - ["sim/fill-balance"] — block fills from the next level differ
      from the misses that must have caused them (error);
    - ["sim/attraction-bound"] — more subblocks attracted than
      remote-hit parts, or attractions with buffers disabled (error);
    - ["sim/snoop-balance"] — multiVLIW snoops below the transactions
      that must have appeared on the bus (error);
    - ["sim/traffic-keys"] — a backend reporting traffic counters it
      does not have (error);
    - ["sim/addr-plan"] — the staged {!Vliw_workloads.Layout.addr_fn}
      plan disagrees with the direct {!Vliw_workloads.Layout.address}
      computation on a sampled (op, iteration) (error);
    - ["sim/addr-align"] — a generated address not aligned to its
      access granularity (error). *)

val audit_stats :
  arch:Vliw_sim.Machine.arch ->
  n_mem_ops:int ->
  trip:int ->
  ii:int ->
  stage_count:int ->
  ?where:string ->
  Vliw_sim.Stats.t ->
  Diagnostic.t list
(** Per-loop conservation laws over one {!Vliw_sim.Executor.run_loop}
    result. *)

val audit_traffic :
  arch:Vliw_sim.Machine.arch ->
  stats:Vliw_sim.Stats.t ->
  traffic:(string * int) list ->
  ?max_parts:int ->
  ?where:string ->
  unit ->
  Diagnostic.t list
(** Traffic-balance laws.  [stats] must aggregate *every* access the
    machine behind [traffic] ever served (fresh machine, all loops
    accumulated), otherwise the balances do not close.

    [max_parts] (default 1) is the widest element in the access stream,
    in interleaving units: [ceil (granularity / interleaving_factor)]
    maximized over the memory ops.  Traffic counters bump once per part
    while [stats] classifies whole elements by their slowest part, so
    the balances are exact equalities only when [max_parts = 1]; wider
    elements relax them to lower/upper bounds (a filling part is
    typically shadowed by the element's own in-flight fill and the
    element lands in the Combined class). *)

val audit_addr_plan :
  Vliw_workloads.Layout.t ->
  Vliw_ir.Ddg.t ->
  ?where:string ->
  unit ->
  Diagnostic.t list
(** Cross-check the staged per-DDG address plan against the unstaged
    per-access computation on 64 iteration indices
    per memory operation (geometrically spaced so wrap-around points are
    hit), and check granularity alignment. *)
