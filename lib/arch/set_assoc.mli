(** Generic set-associative tag array with true-LRU replacement.

    Keys are non-negative integers (block numbers, or packed
    (block, module) pairs for attraction buffers), stored whole, so they
    never alias.  Way [w] of set [s] is {e slot} [s * ways + w] of flat
    key and stamp arrays; a key's set is [key land (sets - 1)] for a
    power-of-two set count, [key mod sets] otherwise.  Nothing
    allocates, and a negative key raises [Invalid_argument]. *)

type t = {
  ways : int;
  sets : int;
  mask : int;  (** [sets - 1] when [sets] is a power of two, else -1 *)
  keys : int array;  (** by slot; -1 marks an invalid way *)
  stamps : int array;  (** by slot; the last use, from [clock] *)
  mutable clock : int;
}
(** The record is exposed for the interleaved cache's access loop,
    which scans and updates its tag and attraction-buffer arrays in
    place: under dune's default [-opaque] builds every call into this
    module from another one goes through [caml_applyN].  Code that
    writes a field must keep this module's policy, which
    {!Interleaved_cache} restates and the "flat caches match the record
    spec" property checks.  Everything else should use the functions
    below. *)

val create : sets:int -> ways:int -> t
(** @raise Invalid_argument if either argument is non-positive. *)

val find : t -> int -> int
(** The slot holding a key, or -1, without touching LRU state.  The
    slot stays the key's until it is evicted or invalidated, so it can
    index per-way side arrays of [sets * ways] entries. *)

val use : t -> int -> int
(** As {!find}, and a hit becomes most-recently used. *)

val fill : t -> int -> int
(** Insert a key (MRU) into the first invalid way of its set, else over
    the LRU one, and return the evicted key or -1.  Filling a present
    key refreshes it and evicts nothing. *)

val invalidate : t -> int -> unit
(** Remove a key if present. *)

val flush : t -> unit
(** Empty the whole array. *)

val occupancy : t -> int
(** Number of valid entries. *)
