(** Generic set-associative tag array with true-LRU replacement.

    Keys are arbitrary non-negative integers (block numbers, or packed
    (block, module) pairs for attraction buffers); the structure maps a
    key to its set by modulo and stores the full key, so it never aliases. *)

type t

val create : sets:int -> ways:int -> t
(** @raise Invalid_argument if either argument is non-positive. *)

val contains : t -> int -> bool
(** Presence check without touching LRU state. *)

val lookup : t -> int -> bool
(** Presence check; on a hit the entry becomes most-recently used. *)

val insert : t -> int -> int option
(** Insert a key (MRU).  Returns the evicted key, if any.  Inserting a
    present key refreshes its LRU position and evicts nothing. *)

val invalidate : t -> int -> unit
(** Remove a key if present. *)

val flush : t -> unit
(** Empty the whole array. *)

val occupancy : t -> int
(** Number of valid entries. *)
