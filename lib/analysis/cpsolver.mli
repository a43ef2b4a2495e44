(** A small self-contained finite-domain constraint solver: the search
    core under {!Oracle}.

    The solver owns variables (dense integer domains), a trail, and a
    propagation queue; constraints live entirely in client code as
    {!on_assign} watchers that prune domains ({!remove}), force values
    ({!assign}) and signal dead ends by raising {!Conflict}.  Search is
    chronological depth-first branch-and-bound over a caller-supplied
    static variable order with caller-supplied value orders — no
    randomization, no timers, no learning: given the same model and
    budgets the solver visits the identical tree on every host, which is
    what makes oracle leaderboards byte-identical across machines and
    [--jobs] settings.

    Budgets count {e decisions} (value choices tried) and {e conflicts}
    (dead ends hit), never wall-clock. *)

type t

exception Conflict
(** Raised by {!remove}/{!assign} on domain wipe-out, and by watchers to
    reject a partial assignment.  The search engine catches it and
    backtracks; user code outside a watcher should not. *)

val create : unit -> t

val new_var : t -> size:int -> int
(** A fresh variable with domain [{0, .., size-1}]; returns its id (ids
    are dense, in creation order).  @raise Invalid_argument if
    [size <= 0].  A size-1 variable is born assigned (and will be
    propagated). *)

val n_vars : t -> int

val value : t -> int -> int
(** Assigned value of a variable, or [-1] while unassigned. *)

val is_assigned : t -> int -> bool

val remove : t -> int -> int -> unit
(** Prune one value (no-op if already absent).  Trailed.  Raises
    {!Conflict} on wipe-out; a domain reduced to one value becomes
    assigned and is queued for propagation. *)

val assign : t -> int -> int -> unit
(** Reduce a domain to a single value (watchers use this for forced
    moves).  Raises {!Conflict} if the value is absent or the variable
    is already assigned differently. *)

val on_assign : t -> (int -> unit) -> unit
(** Register a watcher called (in registration order) with each
    variable's id once it becomes assigned — by search decision or by
    propagation.  Watchers may inspect any variable, prune, force
    assignments, and raise {!Conflict}. *)

val post_undo : t -> (unit -> unit) -> unit
(** Push a closure run on backtrack past this point — how watchers keep
    side state (resource counters) consistent with the trail. *)

val propagate : t -> unit
(** Drain the propagation queue (watchers may extend it).  Called by the
    search engine after every decision; call it once by hand after
    posting initial unary constraints to surface root-level conflicts
    (it raises {!Conflict} like any propagation). *)

type result = Sat | Unsat | Budget_exhausted

type stats = {
  decisions : int;  (** value choices tried, root included *)
  conflicts : int;  (** dead ends the search backtracked from *)
  propagations : int;  (** watcher invocations *)
}

val solve :
  t ->
  ?values:(int -> int list) ->
  order:int array ->
  max_decisions:int ->
  max_conflicts:int ->
  unit ->
  result * stats
(** Depth-first search assigning the variables of [order] (already
    assigned ones are skipped) in sequence.  [values v] proposes
    candidate values for [v] in preference order — it is consulted at
    node entry, may depend on the current partial assignment, and is
    filtered against the live domain (default: ascending).  Returns
    [Sat] with every variable of [order] assigned (the model is left in
    the witness state), [Unsat] after exhausting the tree, or
    [Budget_exhausted] as soon as either budget would be exceeded.  The
    solver state is only meaningful afterwards in the [Sat] case. *)
