(** The deterministic interleaving explorer: a cooperative virtual
    scheduler over effect-based fibers, exploring closed scenarios under
    sleep-set DPOR with a bounded-preemption budget.

    A {e scenario} is real production code (Memo gets, the serve
    emitter/queue, ...) run through the {!Vliw_parallel.Sync} shim: each
    shim operation performs an effect, the scheduler executes its
    semantics on a model of the mutexes/conditions, and at every step
    one enabled fiber is chosen.  Exploration is a stateless-replay DFS
    over schedule prefixes; sleep sets prune interleavings that only
    commute independent operations, and a preemption budget bounds the
    context-switch depth (the classic CHESS observation: real bugs need
    few preemptions).  A [spurious_budget] additionally lets the
    explorer inject spurious condition-variable wakeups, which is what
    catches [if]-instead-of-[while] wait bugs.

    Everything is deterministic: the candidate order at each decision
    point is a [splitmix64] permutation of the seed, so a run is
    replayable from [(scenario, seed)] alone and byte-identical across
    [--jobs] settings (the explorer itself is single-domain). *)

type failure = {
  pass : string;  (** diagnostic pass id, e.g. ["concsan/deadlock"] *)
  message : string;
  schedule : string;  (** the decision prefix that exposed it *)
}

type outcome = {
  name : string;
  executions : int;  (** interleavings actually run *)
  steps : int;  (** scheduler decisions across all executions *)
  truncated : bool;  (** hit the execution budget before exhausting *)
  failures : failure list;  (** deduplicated by pass id *)
}

type scenario = {
  name : string;
  spurious_budget : int;
      (** max scheduler-injected spurious wakeups per execution *)
  prepare :
    unit -> (string * (unit -> unit)) list * (unit -> (string * string) option);
      (** Build fresh shared state and return the root fibers
          (name, body) plus a post-execution invariant check returning
          [Some (pass, message)] on violation.  Called once per
          explored interleaving. *)
}

val explore : seed:int64 -> scenario -> outcome
(** Explore the scenario's interleavings, with at most 4 preemptions
    per execution.  At most 2048 interleavings are explored
    ([truncated] reports hitting that bound); 4096 decisions bound one
    execution — exceeding it is reported as [concsan/stuck] (livelock);
    a deadlock (non-done fibers, nothing enabled) is [concsan/deadlock].
    Must be called from a domain with no virtual hook installed (not
    reentrant). *)
