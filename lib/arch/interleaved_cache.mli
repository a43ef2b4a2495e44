(** The word-interleaved L1 data cache (Section 3 of the paper).

    A cache block is distributed over the clusters: the words of a block
    whose interleaving units map to cluster [c] form the block's subblock
    in [c]'s cache module.  Tags are replicated in every module, so
    presence is a property of the whole block; locality is a property of
    the accessed word.  Requests to a subblock that is already in flight
    are *combined* with the pending request.

    Optionally the cache carries Attraction Buffers; remote hits then
    attract their subblock, and later accesses to it are local hits.

    Pending requests live beside the tags: one ready cycle per tag slot
    and home cluster, so a hit or a combined access costs the tag scan
    and one array read.  A block evicted by a fill hands the entries set
    in the current loop to a small spill table, which only a tag miss
    consults.  The model is exact whatever order accesses come in:
    issue times need not be monotonic, and a request stays visible to
    every later access of the loop that issues before it completes. *)

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

(** The per-operation facts of a loop's access plan, indexed by plan
    position (the memory operations in issue order). *)
type plan = {
  starts : int array;  (** start cycle within the II *)
  clusters : int array;  (** issuing cluster *)
  stores : bool array;
  parts : int array;  (** interleaving units one element spans *)
  promised : int array;  (** latency the schedule promised the load *)
  factor_masks : int array;
      (** bit [i] set: factor [i] of a stalling remote hit *)
}

val run_batch :
  t array ->
  attracts:bool array array ->
  plan ->
  decode:Config.decode ->
  i_factor:int ->
  ii:int ->
  trace:int array ->
  from:int ->
  until:int ->
  stalls:int array ->
  tallies:int array array ->
  unit
(** Simulate iterations [from .. until - 1] of a loop on every cache of
    the array in lockstep.  [trace.(iter * n + k)] is the base address
    of plan position [k] on iteration [iter]; each of its [parts] words
    is decoded with [decode] once for every cache.  Per cache [j]:
    [attracts.(j).(k)] is the attract hint of position [k], [stalls.(j)]
    the accumulated stall (its clock skew, updated), and [tallies.(j)]
    its counters, added to: the access count of each kind at its
    position [i] in {!Access.of_index} order, its stall cycles at
    [Access.n_kinds + i], and from [2 * Access.n_kinds] on, one count
    per factor-mask bit over the stalling remote hits.

    An access issues at [iter * ii + starts.(k) + stalls.(j)]; a wide
    element is classified by its slowest part; a load stalls the cache's
    clock by how late its datum is against the promised latency; stores
    never stall.  Caches are independent, so each one's results are
    those of a batch of one.  Allocates two [max parts]-word scratch
    arrays per call and nothing per access. *)

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
