(** A thread-safe, sharded, string-keyed memo table with per-key
    single-flight — the substrate under the experiment engine's compile
    and address-trace caches.

    Sharding: each shard owns its own mutex/condition, so worker
    domains asking for different keys usually proceed on independent
    locks.  Single-flight: the first caller of a key computes it
    outside the lock while latecomers block until the value lands, so
    no key is ever computed twice concurrently — even under a
    full-fan-in race.

    Capacity: an optional [cap] bounds the completed entries (FIFO
    eviction, enforced per shard) so fleet-scale sweeps cannot grow a
    memo without bound; an evicted key is simply recomputed on its next
    request, so results never depend on the cap — only speed does. *)

type 'a t

type stats = {
  size : int;  (** completed entries currently resident *)
  hits : int;  (** [get] calls answered from the table *)
  misses : int;  (** [get] calls that had to compute *)
  evictions : int;  (** completed entries dropped by the cap *)
}

val create : ?shards:int -> ?cap:int -> unit -> 'a t
(** [create ~shards ~cap ()] makes an empty memo with at least [shards]
    shards (rounded up to a power of two; default 16).  [cap] bounds
    the completed entries: it is split evenly across shards (rounded
    up, so total capacity is at least [cap]); omitted means
    unbounded. *)

val get : 'a t -> string -> (unit -> 'a) -> 'a
(** [get t key compute] returns the memoized value for [key], invoking
    [compute] (outside the shard lock) at most once per key at a time
    across all domains; callers that block on another domain's
    computation count as hits.  If [compute] raises, the claim is
    released so another caller can retry, and the exception
    propagates. *)

val find_opt : 'a t -> string -> 'a option
(** Non-blocking lookup: [Some v] only if [key] is fully computed. *)

val stats : 'a t -> stats
(** Aggregate hit/miss/eviction counters and resident size. *)
