(** Attraction Buffers (Section 3 of the paper): one small set-associative
    buffer per cluster that keeps copies of *remote* subblocks.  A remote
    access attracts the whole subblock; later accesses by the same cluster
    to that subblock are satisfied locally.  Coherence is the scheduler's
    job (memory-dependent chains) plus a flush between loops. *)

type t = private { cluster_shift : int; buffers : Set_assoc.t array }
(** [buffers.(c)] is cluster [c]'s buffer.  It is keyed by the subblock
    number [(block lsl cluster_shift) lor home] (see
    {!Config.decoder}), so the subblocks of one block spread over
    consecutive sets.  Exposed for the interleaved cache's access loop,
    which probes the buffers in place. *)

val create : Config.t -> t
(** One buffer per cluster, [ab_entries] entries, [ab_associativity]-way.
    @raise Invalid_argument on a geometry {!Config.decoder} refuses. *)

val holds : t -> cluster:int -> block:int -> home:int -> bool
(** Does [cluster]'s buffer hold the subblock of [block] homed at cluster
    [home]?  Refreshes LRU on a hit. *)

val attract : t -> cluster:int -> block:int -> home:int -> unit
(** Bring a remote subblock into [cluster]'s buffer (evicting LRU). *)

val flush : t -> unit
(** Empty every cluster's buffer (executed between loops). *)

val occupancy : t -> int -> int
(** Valid entries in one cluster's buffer. *)
