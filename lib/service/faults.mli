(** Deterministic seeded fault injection for the compile service.

    A plan is a pure function of [(seed, request sequence number)] — no
    global state, no randomness source — so a chaos session replays
    identically: the same seed faults the same requests in the same way
    on every host and [--jobs] setting.  The test suite and the CI smoke
    job rely on this to assert, for a fixed seed, that every injected
    failure produced exactly the structured response it should have.

    Four fault kinds cover the service's failure taxonomy:
    {ul
    {- [Decode_corruption] — the request line is corrupted before the
       decoder sees it (always into invalid JSON), exercising the
       structured ["error"] path;}
    {- [Worker_exception] — {!Injected} is raised inside the request
       handler, exercising crash isolation (["internal_error"]);}
    {- [Budget_exhaustion] — the request's cancellation token is
       replaced with an already-dry one, exercising the deterministic
       deadline path (["timeout"]);}
    {- [Queue_full] — the request is shed as if the bounded queue were
       full, exercising backpressure (["overloaded"]).}} *)

type kind = Decode_corruption | Worker_exception | Budget_exhaustion | Queue_full

exception Injected of string
(** The chaos worker crash.  Deliberately a distinct exception so tests
    can assert the service's catch-all does not special-case it. *)

type plan

val create : seed:int -> plan

val for_request : plan -> int -> kind option
(** [for_request plan seq] — the fault (if any) injected into request
    number [seq].  Roughly one request in three is faulted, uniformly
    across the four kinds. *)

val corrupt : plan -> int -> string -> string
(** Deterministically corrupt a request line ([seq] selects the
    mutation).  Every mutation starts the line with byte [0xff], which
    no JSON document can, so corruption is {e guaranteed} to produce a
    decoder error rather than accidentally remaining valid. *)
