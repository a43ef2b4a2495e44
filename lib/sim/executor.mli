(** Cycle-level execution of one modulo-scheduled loop over a memory
    system.

    VLIW lockstep stall model: the machine issues the schedule verbatim;
    when a load's datum arrives after the cycle the schedule promised
    (issue + assigned latency), the whole machine stalls for the
    difference.  Loads scheduled with a latency at least as large as the
    access's true latency therefore never stall — the property the
    latency-assignment pass is designed around.  Stores never stall the
    pipeline (nothing consumes them in-core), but their accesses are
    classified like any other.

    Compute time is [(trip_count + SC - 1) * II]; every stall cycle is
    attributed to the access class that caused it, and stalling remote
    hits are further classified by the paper's four factors (an
    operation's preferred cluster counts as unclear below a 0.9
    distribution). *)

val stall_factors :
  Vliw_arch.Config.t -> Vliw_core.Pipeline.compiled -> int -> Stats.factor list
(** The Figure-5 factors a stalling remote hit of the given operation
    (an op id of the compiled loop's DDG) is counted under; empty for a
    non-memory operation. *)

val address_trace :
  Vliw_core.Pipeline.compiled ->
  addr_of:(op:int -> iter:int -> int) ->
  int array
(** The loop's full address stream as one flat array, row-major by
    iteration over the mem ops in issue order (the executor's plan
    order): element [iter * n + k] is the base address the [k]-th
    plan position resolves to on iteration [iter].  Addresses depend
    only on (op, iteration) — never on cache state — so one trace
    serves every configuration a plan is swept against; Context
    memoizes them per (plan, layout). *)

val run_loop :
  Vliw_arch.Config.t ->
  Machine.t ->
  Vliw_core.Pipeline.compiled ->
  ?addr_of:(op:int -> iter:int -> int) ->
  ?addr_trace:int array ->
  unit ->
  Stats.t
(** Execute every iteration of the compiled (already unrolled) loop,
    then signal end-of-loop to the memory system (attraction-buffer
    flush).  [addr_of] maps an operation of the *unrolled* DDG and an
    unrolled-iteration index to a byte address; [addr_trace] supplies
    the same stream pre-resolved (see {!address_trace}) so repeated
    sweeps skip re-deriving it.  At least one of the two is required;
    when both are given the trace wins.

    A solo run is the one-cell batch: {!run_loop_batched} over
    [[| { machine; attractable = None } |]], so every simulated access
    goes through the one kernel {!run_loop_reference} checks, and a solo
    run under a deadline ticks {!Vliw_parallel.Cancel} like any batch. *)

(** One configuration of a batched sweep: its own machine (cache tags,
    AB contents, pending-request tables) and, optionally, its own
    compiler attract hints (per-DDG-op flags; [None] lets every load
    attract). *)
type batch_cell = {
  machine : Machine.t;
  attractable : bool array option;
}

val run_loop_batched :
  Vliw_arch.Config.t ->
  batch_cell array ->
  Vliw_core.Pipeline.compiled ->
  ?addr_of:(op:int -> iter:int -> int) ->
  ?addr_trace:int array ->
  ?trip:int ->
  unit ->
  Stats.t array
(** Simulate N cache configurations in lockstep over a single traversal
    of one access plan: the plan, factor masks and address stream are
    shared; per-configuration stall clocks, statistics and attract
    flags live in struct-of-arrays batch state; each mem-op's resolved
    address is dispatched to every cell before the traversal advances.
    Per-operation facts (start cycle, cluster, parts, store flag,
    promised latency, Figure-5 factor mask) are precomputed into flat
    arrays, the backend dispatch is hoisted into one access closure per
    cell, and access results travel through mutable scratch slots — the
    steady-state loop performs no heap allocation.  Cells are fully
    independent, so each cell's result (and its machine's traffic
    counters) is bit-identical to a one-cell batch of that
    configuration — asserted by the golden suite and the
    batch-composition qcheck property.

    [cfg] is the plan-side configuration; every cell must agree with it
    on the geometry the plan bakes in (cluster count, interleaving
    factor, maximum unroll).  Cache geometry, latencies and
    attraction-buffer capacity are free to differ per cell — they live
    in each cell's machine.  Returns per-cell statistics in cell
    order.

    [trip] caps the unrolled iterations simulated (clamped to
    [1 .. trip_count]; default: all): every cell is cut at the same
    point and compute time uses the cut count, so a capped run is
    exactly a shortened loop — the design-space sweep's
    fidelity/wall-clock knob.  A supplied [addr_trace] must still be
    the full-length stream.

    Under an installed {!Vliw_parallel.Cancel} token the kernel charges
    one work unit per cell every 256 unrolled iterations (stage
    ["simulate"]) and may raise {!Vliw_parallel.Cancel.Cancelled}. *)

val run_loop_reference :
  Vliw_arch.Config.t ->
  Machine.t ->
  Vliw_core.Pipeline.compiled ->
  addr_of:(op:int -> iter:int -> int) ->
  ?attractable:bool array ->
  unit ->
  Stats.t
(** The straightforward list-based executor the kernel replaced, kept
    as the executable specification: the golden equivalence suite
    asserts {!run_loop} and {!run_loop_batched} produce bit-identical
    {!Stats.t} on every backend.  Not used by the experiment drivers;
    it lives here rather than in the tests because the repository
    benchmark's correctness check calls it as well.  Never ticks
    {!Vliw_parallel.Cancel}. *)
