(** A fixed-size pool of OCaml 5 domains over a mutex/condition work
    queue — the experiment engine's parallel substrate.

    The pool exists so the paper artefact can evaluate independent
    (benchmark, spec, architecture) cells concurrently while keeping the
    rendered reports byte-identical to a sequential run: {!map_ordered}
    preserves input order, and with [jobs = 1] no domain is ever
    spawned, so [--jobs 1] reproduces today's single-core behaviour
    exactly.

    Nested calls are safe: a task that itself calls {!map_ordered} (or
    {!map}) runs the inner map sequentially inside its worker domain
    rather than deadlocking on the shared queue. *)

type t
(** A pool of worker domains.  Workers live until {!shutdown}. *)

val create : ?clamp:bool -> ?jobs:int -> unit -> t
(** [create ~jobs ()] spawns [effective_jobs jobs] worker domains.
    [jobs] defaults to [Domain.recommended_domain_count ()].  An
    effective count [<= 1] creates a poolless handle that runs
    everything in the calling domain.  [~clamp:false] skips the
    hardware-parallelism clamp (still capped at [max_jobs]) — for the
    concurrency sanitizer and teardown tests, which need real worker
    domains even on a 1-core host; production callers should keep the
    default. *)

val jobs : t -> int
(** Worker-domain count the pool actually runs with (1 = sequential);
    may be lower than the [~jobs] requested — see {!effective_jobs}. *)

val effective_jobs : int -> int
(** How many worker domains a pool created with [~jobs] would actually
    spawn on this machine: the request clamped to [1 .. max_jobs] and to
    [Domain.recommended_domain_count ()].  Oversubscribing domains is a
    net loss (every domain joins stop-the-world minor collections), so
    requests beyond the hardware's parallelism degrade gracefully to
    what the host can truly run — on a 1-core host any [--jobs n] is
    effectively sequential rather than 2x slower. *)

val shutdown : t -> unit
(** Ask the workers to exit once the queue drains and join them.
    Idempotent.  Submitting to a shut-down pool runs sequentially.
    Every worker is joined even if a join re-raises a worker's escaped
    exception (the first failure propagates after all joins finish), so
    a dying worker can never orphan the remaining domains. *)

val unsafe_inject_for_test : t -> (unit -> unit) -> bool
(** Enqueue a raw task with none of {!map}'s exception capture — a
    raising task kills its worker domain.  Exists solely so the
    teardown regression test can drive {!shutdown}'s join-all path
    against a dead worker; never call it from production code.  Returns
    [false] on a poolless or stopped pool. *)

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** Order-preserving parallel map on an explicit pool.  Exceptions
    raised by [f] are re-raised in the caller — the one belonging to the
    earliest input element, matching what sequential [List.map] would
    have raised first. *)

val default_jobs : unit -> int
(** The job count of the shared pool {!map_ordered} runs on.
    Initially [Domain.recommended_domain_count ()]. *)

val set_default_jobs : int -> unit
(** Set the default job count (clamped to [>= 1]) — the [--jobs] flag.
    Shuts down and lazily re-creates the shared pool if the size
    changed. *)

val sequential_scope : (unit -> 'a) -> 'a
(** Run the callback with every nested {!map} / {!map_ordered} forced
    sequential in the calling domain (the same mechanism that keeps a
    worker's nested maps from deadlocking on the shared queue).  The
    compile service wraps each request handler in this: the request is
    the unit of parallelism, and the handler's domain-local
    {!Cancel} token must observe all of its own work.  Restores the
    previous behaviour on exit, even on exception. *)

val map_ordered : ('a -> 'b) -> 'a list -> 'b list
(** [map_ordered f xs] is {!map} on the shared pool of
    {!default_jobs} workers: results in input order, and with one job
    exactly [List.map f xs].  Callers wanting another size create their
    own pool with {!create}. *)
