(** Allocation-free open-addressing map from non-negative int keys to
    int values — the pending-request bookkeeping of the unified and
    multiVLIW cache models, probed on every simulated access, and the
    interleaved cache's spill table.

    [set] and [find_after] never allocate once the table has grown to its
    working size; there is no per-key deletion, only {!reset} (the
    between-loops flush), which clears every binding but keeps the
    capacity. *)

type t

val create : int -> t
(** [create capacity] — initial capacity hint (rounded up to a power of
    two, at least 16). *)

val set : t -> int -> int -> unit
(** Insert or overwrite.  @raise Invalid_argument on a negative key. *)

val find_after : t -> int -> now:int -> int
(** The value bound to a key if it is greater than [now] (a request
    still in flight), else -1.  Answers without probing once [now] has
    reached every value set since the last {!reset}. *)

val reset : t -> unit
(** Remove every binding, keeping the allocated capacity. *)
