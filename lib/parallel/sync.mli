(** The concurrency-sanitizer instrumentation shim.

    Every synchronization primitive the parallel substrate uses —
    mutexes, condition variables, atomics, domain spawn/join — and every
    *annotated* shared-cell access goes through this module instead of
    the stdlib.  The shim has three modes:

    - {b passthrough} (the default): one atomic flag load and a
      domain-local read per operation, then the real stdlib call.  No
      events, no allocation — the production configuration every
      benchmark measures.
    - {b record} (inside {!record_scope}): the real operation still
      runs, and an event carrying a globally-ordered stamp is appended
      to the calling domain's private append-only log.  The collected
      {!Trace.t} feeds the offline lockset / happens-before race
      detector, the lock-order deadlock lint and the condition-variable
      lints in [Vliw_concsan].
    - {b virtual} (when {!set_virtual_ops} installed a hook for the
      calling domain): the operation is diverted to a cooperative
      virtual scheduler — no stdlib call happens at all.  This is how
      the DPOR interleaving explorer runs {e real} [Memo] / service
      code single-threadedly while controlling every scheduling point.

    Stamp discipline: mutex events are stamped while the real mutex is
    held, and atomic-object operations are serialized with their stamp
    under a private lock while recording, so the per-object stamp order
    always agrees with the real execution order — the property the
    happens-before construction relies on. *)

type mutex
type condition

type cell
(** A marker for one shared non-atomic memory location (or a coherent
    group of locations guarded as a unit, e.g. one [Hashtbl]).  Cells
    carry no data — call {!read}/{!write} next to the real access so
    the race detector can see it. *)

type atomic
(** An [int Atomic.t] wrapped so loads and stores are traced and induce
    happens-before edges (every access is treated as acquire/release,
    matching the OCaml memory model's SC atomics). *)

val mutex : ?name:string -> unit -> mutex
val condition : ?name:string -> unit -> condition
val cell : ?name:string -> unit -> cell
val atomic : ?name:string -> int -> atomic

val lock : mutex -> unit
val unlock : mutex -> unit

val wait : condition -> mutex -> unit
(** Must be called holding [mutex], inside a predicate re-check loop —
    the trace lint [concsan/cond-no-recheck] flags wakes that proceed
    without re-reading any shared state. *)

val signal : condition -> unit
val broadcast : condition -> unit

val read : cell -> unit
val write : cell -> unit

val get : atomic -> int
val add : atomic -> int -> unit
(** [add a n] is an atomic fetch-and-add (result discarded). *)

val note : string -> unit
(** Free-form annotation appended to the trace when recording (no-op
    otherwise) — e.g. [Cancel] marks budget trips with it. *)

type 'a handle
(** A spawned thread of execution: a real [Domain.t] in passthrough and
    record modes, a virtual fiber under the interleaving explorer. *)

val spawn : (unit -> 'a) -> 'a handle
(** [Domain.spawn] with fork-edge bookkeeping: when recording, the
    parent logs a fork event and the child's log opens with a matching
    begin event, giving the analyzer its fork happens-before edge. *)

val join : 'a handle -> 'a
(** [Domain.join] (re-raising the thread's exception, like the real
    one), with the matching join happens-before edge when recording. *)

(* ------------------------------------------------------------ traces *)

module Trace : sig
  type event =
    | Acquire of int  (** mutex id *)
    | Release of int
    | Wait_begin of { cond : int; mutex : int }
        (** about to release [mutex] and block — counts as a release *)
    | Wait_end of { cond : int; mutex : int }
        (** woken and reacquired [mutex] — counts as an acquire *)
    | Signal of { cond : int; broadcast : bool }
    | Read of int  (** cell id *)
    | Write of int
    | A_load of int  (** atomic id *)
    | A_store of int  (** atomic store or read-modify-write *)
    | Fork of { child : int }  (** child thread id *)
    | Begin of { parent : int }
    | End  (** thread function returned (normally or by exception) *)
    | Join of { child : int }
    | Note of string

  type entry = { stamp : int; ev : event }
  (** [stamp] is a global sequence number consistent with the per-object
      real-time order of synchronization operations. *)

  type thread = { tid : int; events : entry list (* program order *) }
  type t = { threads : thread list; names : (int * string) list }

  val n_events : t -> int
end

val record_scope : (unit -> 'a) -> 'a * Trace.t
(** Run the callback with recording enabled in every domain and return
    the collected trace.  Scopes are serialized process-wide; threads
    spawned inside the scope should be joined inside it (a domain that
    outlives the scope simply stops logging).  Thread ids are assigned
    from 0 (the calling domain) in registration order. *)

(* ------------------------------------------- virtual-scheduler hook *)

type virtual_ops = {
  v_lock : int -> unit;
  v_unlock : int -> unit;
  v_wait : cond:int -> mutex:int -> unit;
  v_signal : broadcast:bool -> int -> unit;
  v_read : int -> unit;
  v_write : int -> unit;
  v_aload : int -> unit;
  v_astore : int -> unit;
  v_spawn : (unit -> unit) -> int;  (** returns the fiber id *)
  v_join : int -> unit;
}

val set_virtual_ops : virtual_ops option -> unit
(** Install (or clear) the calling domain's virtual-scheduler hook.
    While installed, every shim operation in this domain calls the hook
    instead of the stdlib — the DPOR explorer installs it around each
    explored execution.  Other domains are unaffected. *)

val with_id_base : int -> (unit -> 'a) -> 'a
(** Run the callback with the object-id counter moved to [base],
    restoring it after (even on exception).  The DPOR explorer wraps
    each explored execution in this so a scenario's [prepare] allocates
    the {e same} ids on every replay — its recorded schedules stay
    valid across executions.  Pick a base far above what production
    code ever allocates (the explorer uses 1_000_000) so the replayed
    ids cannot collide with live objects, and never run two id-based
    sessions (explorer or {!record_scope}) concurrently. *)

val name_of_id : int -> string option
(** The [?name] an object id was created with, if any — shared by
    traces and the virtual scheduler's failure messages. *)
