(** Generic set-associative tag array with true-LRU replacement.

    Keys are non-negative integers (block numbers, or packed
    (block, module) pairs for attraction buffers), stored whole, so they
    never alias.  Way [w] of set [s] is {e slot} [s * ways + w] of flat
    key and stamp arrays; a key's set is [key land (sets - 1)] for a
    power-of-two set count, [key mod sets] otherwise.  Nothing
    allocates, and a negative key raises [Invalid_argument]. *)

type t

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
