(** Recurrence-constrained minimum initiation interval (RecMII).

    For a candidate II, a set of dependence constraints
    [t(dst) >= t(src) + lat(e) - II * distance(e)] is satisfiable iff the
    constraint graph has no positive-weight cycle with weights
    [lat(e) - II * distance(e)].  The II of a recurrence is the smallest
    II for which its subgraph is satisfiable.

    A {!solver} captures one recurrence's subgraph once; latency
    assignment evaluates hundreds of candidate latency vectors against
    the same recurrence, so the filtered edge set is worth keeping.

    Every II query runs one algorithm: Bellman–Ford longest paths at a
    candidate II that either converges (the II is feasible) or returns
    a positive cycle of the graph of last-improving edges, whose
    [ceil(lat/dist)] is a lower bound above the candidate.  {!solve}
    climbs from the best known bound to the first II that converges.

    A solver is mutable: it keeps its scratch arrays and the last few
    witness cycles it found (their ratios under the current latencies
    seed the next climb), so it may be used from one domain only. *)

exception Infeasible
(** Raised when a recurrence contains a zero-distance cycle with positive
    total latency: no II can schedule it (malformed DDG). *)

type solver

val solver : Ddg.t -> nodes:int list -> solver
(** Capture the subgraph induced by [nodes]. *)

val solve : ?upper_feasible:int -> solver -> latency:(int -> int) -> int
(** Minimum feasible II of the captured recurrence under the given
    latencies.  [upper_feasible] — an II the caller knows to be
    feasible — caps the climb: reaching it returns it without another
    run, so the result is the same with or without the cap.
    @raise Infeasible on a zero-distance positive cycle (never raised
    when [upper_feasible] is supplied). *)

val solve_feasible : solver -> latency:(int -> int) -> ii:int -> bool
(** Whether the captured recurrence schedules at [ii]. *)

val feasible : Ddg.t -> latency:(int -> int) -> nodes:int list -> ii:int -> bool
(** One-shot version of {!solve_feasible}. *)

val recurrence_ii : Ddg.t -> latency:(int -> int) -> int list -> int
(** One-shot version of {!solve}. *)

val rec_mii : Ddg.t -> latency:(int -> int) -> int
(** Max of {!recurrence_ii} over all recurrences; 1 if the loop has none. *)
