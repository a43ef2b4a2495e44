(** The clustered modulo-scheduling engine (Figure 2 of the paper, shared
    by the BASE algorithm and the interleaved-cache algorithm).

    Cluster assignment and scheduling happen in a single pass over the
    SMS node order with no backtracking: each node tries the candidate
    clusters in preference order and, within a cluster, up to II
    consecutive cycles of its dependence window; if no slot fits anywhere
    the whole attempt is abandoned and the II is increased.

    The cluster-assignment *policy* is injected through {!hooks}, which is
    how {!Vliw_core.Cluster_heuristic} implements BASE, IBC and IPBC on
    one engine: [Free] nodes go to the cluster minimizing new
    register-to-register communications (ties: workload balance), while
    [Forced] nodes (IPBC preferred clusters, chain members) have no say. *)

type choice =
  | Free
  | Forced of int

type hooks = {
  reset : unit -> unit;
      (** called at the start of every II attempt (chains re-pin, etc.) *)
  choice : int -> choice;  (** cluster policy for an operation id *)
  on_scheduled : op:int -> cluster:int -> unit;
      (** notification after an operation commits to a cluster *)
}

val default_hooks : hooks
(** Every node [Free], no state. *)

val memory_components : Vliw_ir.Ddg.t -> int array * int
(** The paper's memory-dependence chains: connected components of the
    operations under [Mem_*] edges.  Returns a dense component id per
    operation ([-1] for non-memory operations) and the component count.
    All members of a component must share a cluster when the target
    serializes memory per cluster; the engine pins them up front, and
    the exact-scheduling oracle merges their cluster variables. *)

val schedule :
  Vliw_arch.Config.t ->
  Vliw_ir.Ddg.t ->
  latency:(int -> int) ->
  ?hooks:hooks ->
  ?allow_cross_cluster_mem:bool ->
  unit ->
  Schedule.t option
(** The search starts at MII = max(ResMII, RecMII).
    [allow_cross_cluster_mem] (default [false]) lifts the same-cluster
    requirement on memory-dependent operations — only the paper's
    no-chains ablation (and the globally-ordered unified/multiVLIW
    memory systems) use it.

    Completeness: if an II attempt wedges on the node that closes a
    recurrence, the same II is retried with the wedged node hoisted to
    the front of the ordering (bounded).  When the search budget (II up
    to [4 * MII + 64]) is exhausted — which the structured benchmark
    loops never do — a guaranteed sequential schedule (II = n x L, one
    operation per window) is returned instead, so the result is [Some]
    for every feasible loop; [None] means a zero-distance cycle the
    sequential fallback cannot order.

    @raise Vliw_ir.Mii.Infeasible if the loop has a zero-distance
    positive-latency cycle (no II can ever schedule it). *)
