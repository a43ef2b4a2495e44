(** Cooperative, deterministic cancellation tokens — the compile
    service's per-request deadline mechanism.

    A token carries a budget counted in {e work units}, never
    wall-clock: instrumented code calls {!tick} at coarse deterministic
    points (one unit per candidate factor the selective search
    schedules, one unit per cell per 256-iteration chunk of a
    simulation, one unit per solver decision/conflict of an oracle
    probe), so a given computation under a given budget is cancelled at
    exactly the same point on every host and at every [--jobs] setting —
    a timed-out request produces byte-identical output on replay.

    The active token lives in domain-local storage: {!with_token}
    installs one for the dynamic extent of a request handler, and every
    {!tick} in library code is a no-op when no token is installed, so
    the one-shot CLI paths pay a single DLS read per tick site.

    Cancellation is an ordinary exception ({!Cancelled}); computations
    interrupted inside a {!Memo} single-flight slot release the claim on
    the way out (see {!Memo.get}), so a cancelled request never poisons
    a memo entry — the next requester of the key simply recomputes. *)

exception
  Cancelled of {
    stage : string;  (** last stage label, the partial attribution *)
    spent : int;  (** work units consumed when the budget tripped *)
    budget : int;
  }

type t

val create : budget:int -> t
(** A fresh token; [budget] is clamped to [>= 0].  The token trips when
    strictly more than [budget] units have been charged. *)

val with_token : t -> (unit -> 'a) -> 'a
(** Install [t] as the calling domain's active token for the duration
    of the callback (restoring any previously-installed token after,
    even on exception).  Tokens are per-domain: work fanned out to
    other domains is not covered — the service runs each request
    entirely in one worker domain ({!Pool.sequential_scope}). *)

val active : unit -> t option
(** The calling domain's installed token, if any. *)

val dls_snapshot : unit -> t option
(** The raw domain-local token slot — {!dls_restore} puts it back.  For
    the concurrency sanitizer's virtual scheduler, which swaps the slot
    around every fiber switch so fibers sharing one domain keep their
    own tokens.  Ordinary code should use {!with_token}. *)

val dls_restore : t option -> unit

val remaining : unit -> int option
(** [Some (budget - spent)] (clamped to [>= 0]) for the installed
    token; [None] when no token is installed.  The oracle caps each
    probe's decision budget with this, which is how a deadline reuses
    the solver's deterministic budget machinery. *)

val set_stage : string -> unit
(** Update the installed token's stage label (no-op without one) — the
    string reported as partial attribution if the budget trips. *)

val charge : int -> unit
(** Add work units to the installed token {e without} checking the
    budget — for code that wants to account completed work but return
    its result even when the deadline has just passed (the oracle
    charges a finished probe before deciding whether to continue). *)

val check : ?stage:string -> unit -> unit
(** Raise {!Cancelled} if the installed token is over budget.  No-op
    without a token. *)

val tick : ?stage:string -> int -> unit
(** [charge] then [check]: the one-call form used at pipeline and
    executor tick sites. *)

val cancel : ?stage:string -> unit -> 'a
(** Raise {!Cancelled} from the installed token unconditionally (used
    when a capped sub-computation reports that the cap — not its own
    budget — was the binding constraint).  Raises [Invalid_argument]
    when no token is installed: only instrumented request paths may
    call it. *)
