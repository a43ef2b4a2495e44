(** Exact modulo-scheduling oracle: a constraint-programming encoder over
    {!Cpsolver} that decides, for one (loop, configuration, II), whether
    any cluster assignment, slot assignment and copy placement satisfies
    every constraint the pipeline's schedules obey — and, iterating the
    II upward from the resource/recurrence floor, certifies the minimal
    feasible II (or a budget-exhausted bracket).

    Trust story: the oracle itself is never trusted.  Every SAT answer
    is realized into a concrete {!Vliw_sched.Schedule.t} witness and
    re-checked by the independent {!Verify_schedule} deep verifier; an
    infeasibility answer is an exhaustive-search proof whose soundness
    rests only on the constraint encoding being a {e relaxation} of what
    the verifier demands (every verifier-legal schedule satisfies the
    encoding — the encoding drops nothing).

    Scope: the oracle optimizes {e placement} — cluster assignment,
    issue slots, copy insertion — for the same fixed problem the
    heuristic scheduler solved: the DDG after unrolling, with the
    latency vector the pipeline assigned.  It does not revisit unroll
    factors or latency assignment, so "optimal" verdicts are relative to
    that fixed input, which is exactly the question the leaderboard
    asks (is the {e scheduler} leaving cycles on the table?).

    Budgets count solver decisions and conflicts, never wall-clock, so
    results are byte-identical across hosts and [--jobs] settings. *)

type decision =
  | Feasible of Vliw_sched.Schedule.t
      (** a witness schedule at this II (realize + verify it yourself,
          or use {!certify} which does both) *)
  | Infeasible  (** exhaustive search proof: no schedule exists *)
  | Out_of_budget

val decide :
  Vliw_arch.Config.t ->
  Vliw_ir.Ddg.t ->
  latency:(int -> int) ->
  ?allow_cross_cluster_mem:bool ->
  ii:int ->
  budget:int ->
  unit ->
  decision * Cpsolver.stats
(** Decide one II.  [budget] bounds both solver decisions and conflicts
    for this probe.  Register pressure is not a constraint: the
    heuristic pipeline only warns on it, so the encoding leaves it out
    and {!Verify_schedule} reports a witness's MaxLive like any other
    schedule's. *)

type verdict =
  | Optimal  (** heuristic II = certified minimum = MII floor *)
  | Hardware_bound
      (** heuristic II = certified minimum > MII floor: the gap over MII
          is forced by copies/buses/capacity, not by the heuristic *)
  | Heuristic_gap  (** certified minimum < heuristic II *)
  | Unknown  (** budget exhausted before the bracket closed *)

val verdict_to_string : verdict -> string
(** ["optimal"], ["hardware-bound"], ["heuristic-gap"],
    ["unknown(budget)"]. *)

type probe = {
  p_ii : int;
  p_sat : decision;
  p_stats : Cpsolver.stats;
}

type certification = {
  floor : int;
      (** search floor under the assigned latencies: ResMII joined with
          the RecMII of the flow/memory edge subgraph.  Cross-cluster
          [Reg_anti]/[Reg_out] dependences are unconstrained in this
          machine model, so the certified minimum may lie below the
          attribution tower's MII. *)
  heuristic_ii : int;  (** the standing verified upper bound *)
  minimal_ii : int option;  (** certified minimum when the bracket closed *)
  infeasible_below : int;
      (** every II with [floor <= II < infeasible_below] carries an
          exhaustive-search infeasibility proof *)
  verdict : verdict;
  witness : Vliw_sched.Schedule.t option;
      (** oracle witness, present exactly on [Heuristic_gap] *)
  witness_diags : Diagnostic.t list;
      (** {!Verify_schedule} report for [witness] ([] when none) *)
  probes : probe list;  (** per-II search outcomes, ascending II *)
  decisions : int;  (** totals across probes *)
  conflicts : int;
}

val default_budget : int
(** Per-II decision/conflict budget used by the leaderboard when
    [--oracle-budget] is not given: 300_000. *)

val certify :
  Vliw_arch.Config.t ->
  Vliw_ir.Ddg.t ->
  latency:(int -> int) ->
  ?allow_cross_cluster_mem:bool ->
  ?budget:int ->
  heuristic_ii:int ->
  unit ->
  certification
(** Iterate {!decide} for II = floor, floor+1, .. until SAT, until every
    II below [heuristic_ii] is refuted, or until a probe runs out of
    budget.  The first SAT witness is verified through
    {!Verify_schedule.verify}; its error/warning counts land in
    [witness_diags] (an error there is a soundness violation — the
    leaderboard and CI treat it as fatal, the oracle only reports it). *)

val sound : certification -> bool
(** No soundness violation visible: the certified minimum (if any) does
    not exceed the heuristic II, and the witness (if any) verified with
    zero errors. *)
