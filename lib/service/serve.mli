(** The resident compile service: a long-lived loop over a
    newline-delimited JSON transport that shares one
    {!Vliw_experiments.Context} (all three sharded single-flight memos)
    across every request of a session.

    The robustness contract, in order of the failure taxonomy:
    {ul
    {- Malformed, unknown, ill-typed and oversized request lines get a
       structured ["error"] response — never a crash, never a silent
       drop.  Exactly one response line is emitted per request line,
       always.}
    {- Per-request deadlines are cooperative {!Vliw_parallel.Cancel}
       budgets counted in work units, never wall-clock, so a timed-out
       request returns the same ["timeout"] response (with stage-level
       partial attribution) on every host and every [--jobs] setting,
       and a cancelled computation releases its single-flight memo claim
       rather than poisoning it.}
    {- Any exception escaping a request handler — including
       [Out_of_memory] and injected chaos crashes — is caught at the
       worker boundary and reported as ["internal_error"] with a
       sanitized exception identity; the memos, the pool and the service
       stay live for the next request.}
    {- The [jobs > 1] dispatch queue is bounded: when it is full the
       request is shed with an ["overloaded"] response instead of
       growing memory without bound, and a high-watermark counter
       records the worst depth seen.}
    {- [drain] (request, SIGINT via [drain_flag], or EOF) finishes
       in-flight work, refuses the rest of the stream, and emits one
       final ["drained"] line carrying session counters and memo
       statistics.}}

    Responses are emitted strictly in request order (an internal
    reorder buffer holds out-of-order completions), which is what makes
    a session replay byte-identical across [--jobs] settings for
    non-shed requests.  Wall-clock timing is opt-in ([wall_times]) for
    the same reason. *)

type counters = {
  accepted : int;  (** request lines read (including malformed ones) *)
  ok : int;  (** ["ok"] responses, health included *)
  errors : int;  (** decode + structured request errors *)
  timeouts : int;
  internal_errors : int;
  shed : int;  (** ["overloaded"] responses *)
  high_watermark : int;  (** worst dispatch-queue depth observed *)
}

type outcome = {
  counters : counters;
  reason : string;  (** "request", "sigint" or "eof" *)
}

(** The service's in-order response emitter, exposed so the concurrency
    sanitizer's virtual scheduler can drive the {e real} reorder-buffer
    logic in closed scenarios.  [emit] delivers completed responses in
    strict sequence order through [write] regardless of completion
    order; [wait_until t n] blocks until every sequence below [n] has
    been written (the health/drain barrier). *)
module Emitter : sig
  type t

  val create :
    ?flush:(unit -> unit) -> write:(string -> unit) -> unit -> t

  val emit : t -> int -> string -> unit
  val wait_until : t -> int -> unit
end

(** The bounded dispatch queue behind [jobs > 1], exposed for the same
    reason: the queue-full shed vs. drain-barrier scenario explores this
    exact code.  [push] returns [false] (shed) on a full or stopped
    queue; [worker] loops until [stop] and the queue has drained;
    [stop] does not join the workers — callers do. *)
module Wq : sig
  type t

  val create : int -> t
  val push : t -> (unit -> unit) -> bool
  val worker : t -> unit
  val stop : t -> unit
end

val run :
  ?jobs:int ->
  ?queue_cap:int ->
  ?chaos:int ->
  ?wall_times:bool ->
  ?default_deadline:int ->
  ?drain_flag:bool Atomic.t ->
  ?ctx:Vliw_experiments.Context.t ->
  input:Unix.file_descr ->
  output:out_channel ->
  unit ->
  outcome
(** Serve one session: read request lines from [input] until a drain
    trigger, write response lines to [output], return the session's
    counters.

    [jobs] (default 1) is the number of dedicated worker domains; [1]
    handles everything inline in the reader.  Unlike the experiment
    pool this count is {e not} clamped to the hardware's parallelism —
    a worker blocked on a single-flight memo wait occupies no core, and
    tests must be able to exercise the concurrent path on a 1-core CI
    host.  [queue_cap] (default 128) bounds the dispatch queue.
    [chaos] seeds a deterministic {!Faults} plan.  [wall_times] adds a
    per-response ["ms"] field and the queue high-watermark to the
    drained line (off by default: wall-clock breaks replay
    byte-identity).  A request line longer than 65536 bytes is answered
    with one ["oversized"] error.
    [default_deadline] is the work-unit budget for requests that carry
    no ["deadline"] field (default: effectively unbounded).
    [drain_flag] is polled between reads — the SIGINT hook.  [ctx]
    (default: fresh) is the shared compile/trace/oracle memo context. *)
