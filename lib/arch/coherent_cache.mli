(** The multiVLIW memory system [Sánchez & González, MICRO-33]: one
    complete cache per cluster (2KB each for the default configuration)
    kept coherent with an MSI snoopy protocol over the memory buses.
    Data may be replicated — the effective capacity shrinks, but accesses
    to replicated data are local.

    Classification mapping used for reporting: a local-cache hit is
    [Local_hit]; a cache-to-cache transfer is [Remote_hit] (it costs the
    same bus round trip); a fill from the next level is [Local_miss];
    merged in-flight requests are [Combined]. *)

type t

val create : Config.t -> t
(** @raise Invalid_argument on a geometry {!Config.decoder} refuses. *)

val access :
  t -> Access.scratch -> now:int -> cluster:int -> block:int -> store:bool -> unit
(** One word access to [block] ({!Config.block_of} of the address) at
    absolute cycle [now] from [cluster]; the classification and ready
    cycle are written into the caller's scratch slot (no allocation). *)

val end_of_loop : t -> unit
(** Forget pending-fill bookkeeping (cache contents persist; the
    multiVLIW needs no inter-loop flush). *)

val state : t -> cluster:int -> block:int -> [ `Modified | `Shared | `Invalid ]
(** Protocol state, for tests. *)

(** Protocol traffic counters — the cost side of the paper's
    "the multiVLIW has a more complex cache and bus design" argument. *)
type traffic = {
  mutable invalidations : int;
      (** lines killed in other clusters by stores *)
  mutable cache_to_cache : int;  (** transfers served by a peer cache *)
  mutable memory_fills : int;  (** fills from the next memory level *)
  mutable snoops : int;  (** bus transactions every cache had to watch *)
}

val traffic : t -> traffic
(** Live counters (mutable so the access path can bump them without
    allocating a record per access) — read, don't write. *)
