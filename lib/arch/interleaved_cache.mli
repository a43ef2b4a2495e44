(** The word-interleaved L1 data cache (Section 3 of the paper).

    A cache block is distributed over the clusters: the words of a block
    whose interleaving units map to cluster [c] form the block's subblock
    in [c]'s cache module.  Tags are replicated in every module, so
    presence is a property of the whole block; locality is a property of
    the accessed word.  Requests to a subblock that is already in flight
    are *combined* with the pending request.

    Optionally the cache carries Attraction Buffers; remote hits then
    attract their subblock, and later accesses to it are local hits. *)

type t

val create : ?with_ab:bool -> Config.t -> t
(** [with_ab] defaults to [false].
    @raise Invalid_argument on a geometry {!Config.decoder} refuses. *)

val access :
  t ->
  Access.scratch ->
  attract:bool ->
  now:int ->
  cluster:int ->
  block:int ->
  home:int ->
  store:bool ->
  unit
(** Perform one word access at absolute cycle [now] from [cluster] to
    the word of [block] homed at [home] ({!Config.block_of} and
    {!Config.home_of} of the address).
    Updates tags, pending-request state and attraction buffers, and
    writes the classification and the cycle the datum is ready into the
    caller's scratch slot (no allocation).  [attract] lets the
    compiler's "attractable" hints suppress attraction for loads that
    would thrash the buffer; it is a mandatory label because an
    optional argument would box on every call. *)

val end_of_loop : t -> unit
(** Flush attraction buffers and forget pending requests — executed
    between loops, as the paper requires for correctness. *)

val ab_occupancy : t -> int -> int
(** Valid attraction-buffer entries of one cluster (0 without ABs). *)

(** Memory-bus traffic counters.  The word-interleaved design needs no
    coherence protocol: its traffic is plain requests and fills, which is
    the simplicity argument of the paper's comparison with the
    multiVLIW. *)
type traffic = {
  mutable remote_words : int;
      (** word requests sent over the memory buses *)
  mutable block_fills : int;  (** whole-block fills from the next level *)
  mutable attractions : int;
      (** subblocks replicated into attraction buffers *)
}

val traffic : t -> traffic
(** Live counters (mutable so the access path can bump them without
    allocating a record per access) — read, don't write. *)
