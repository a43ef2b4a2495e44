(** Swing-modulo-scheduling node ordering [Llosa et al., PACT'96] — the
    ordering the paper adopts (its reference [13]).

    Properties the scheduler relies on:
    - recurrences are ordered first, most II-constraining first;
    - every node except (at most) one per recurrence has, at its turn,
      only predecessors or only successors among the already-ordered
      nodes, which keeps lifetimes (register pressure) low.

    Everything that depends only on the latencies, not on the candidate
    II, is computed once ({!prepare}) and reused across the II
    escalation loop: the SCC priorities and, for each SCC set in
    priority order, the group of nodes ordered with it.  Per II,
    {!ordered} computes only the depths and runs the directional
    sweeps. *)

type prepared

val prepare : Vliw_ir.Ddg.t -> latency:(int -> int) -> prepared
(** SCC decomposition, per-SCC RecMII priorities, and the groups: each
    SCC set (minus nodes an earlier group took) together with the
    not-yet-grouped nodes on paths between it and the earlier groups.
    @raise Vliw_ir.Mii.Infeasible on a zero-distance positive cycle. *)

val rec_mii : prepared -> int
(** The loop's RecMII, the max of the recurrence priorities held by
    {!prepare} (1 if the loop has none) — equal to
    {!Vliw_ir.Mii.rec_mii} without a second SCC and RecMII pass. *)

val ordered : prepared -> Vliw_ir.Ddg.t -> latency:(int -> int) -> ii:int -> int list
(** A permutation of [0 .. n_ops-1] in scheduling order for one II
    attempt. *)

val order : Vliw_ir.Ddg.t -> latency:(int -> int) -> ii:int -> int list
(** One-shot [prepare] + [ordered]. *)

val depths :
  Vliw_ir.Ddg.t -> latency:(int -> int) -> ii:int -> int array * int array
(** [(estart, height)] longest-path values used by the ordering, exposed
    for the scheduler's slot windows and for tests. *)
