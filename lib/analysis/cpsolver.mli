(** A small self-contained finite-domain constraint solver: the search
    core under {!Oracle}.

    The solver owns variables (dense integer domains), trailed integer
    cells, a trail and a propagation queue; constraints live entirely in
    client code as {!on_assign} watchers that prune domains ({!remove}),
    force values ({!assign}), keep side state in cells ({!set}) and
    signal dead ends by raising {!Conflict}.  Search is chronological
    depth-first branch-and-bound over a caller-supplied static variable
    order with caller-supplied value bounds — no randomization, no
    timers, no learning: given the same model and budgets the solver
    visits the identical tree on every host, which is what makes oracle
    leaderboards byte-identical across machines and [--jobs] settings.

    The trail is a growable int array of (key, value) pairs — a value
    removed from a variable, or a cell's previous contents — and a
    search mark is its length, so backtracking pops pairs with no
    allocation.  The propagation queue is a FIFO int ring.

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

val assignment : t -> int array
(** The live value-or-[-1] array behind {!value}, indexed by variable
    id, for watchers that read many variables per event.  Read only.
    It stays valid (and current) until the next {!new_var}, which may
    replace it. *)

val new_cells : t -> int -> int
(** [new_cells t k] allocates [k] integer cells holding [0] and returns
    the id of the first; the others follow densely. *)

val get : t -> int -> int

val set : t -> int -> int -> unit
(** Overwrite a cell.  Trailed: backtracking past this point restores
    the old contents — how watchers keep side state (resource counters,
    flags) consistent with the search. *)

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
    assignments, write cells and raise {!Conflict}. *)

val propagate : t -> unit
(** Drain the propagation queue (watchers may extend it).  Called by the
    search engine after every decision; call it once by hand after
    posting initial unary constraints to surface root-level conflicts
    (it raises {!Conflict} like any propagation). *)

type result = Sat | Unsat | Budget_exhausted

type stats = {
  decisions : int;  (** value choices tried, root included *)
  conflicts : int;  (** dead ends the search backtracked from *)
}

val solve :
  t ->
  ?values:(int -> int) ->
  order:int array ->
  max_decisions:int ->
  max_conflicts:int ->
  unit ->
  result * stats
(** Depth-first search assigning the variables of [order] (already
    assigned ones are skipped) in sequence.  [values v] bounds the
    candidates for [v]: they are [0 .. hi-1] ascending for the [hi] it
    returns (default: [v]'s domain size).  It is consulted at node
    entry and may depend on the current partial assignment; each
    candidate is checked against the domain when the search reaches it.
    That is the same as filtering the candidate list at node entry: the
    search undoes a failed value's trail back to the node's entry state
    before it tries the next.  Returns [Sat] with every variable of
    [order] assigned (the model is left in the witness state), [Unsat]
    after exhausting the tree, or [Budget_exhausted] as soon as either
    budget would be exceeded.  The solver state is only meaningful
    afterwards in the [Sat] case. *)
