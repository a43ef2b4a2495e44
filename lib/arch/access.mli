(** Classification of memory accesses on the interleaved-cache
    architecture (Section 3 of the paper), plus [Combined]: a request to a
    subblock that is already in flight, which is merged with the pending
    request instead of being issued. *)

type kind = Local_hit | Remote_hit | Local_miss | Remote_miss | Combined

(** Mutable result slot of the cache models' [access]: the caller
    allocates one scratch up front and every access overwrites it with
    the classification and the absolute cycle at which the datum is
    available, so the simulation hot loop never allocates an access
    record. *)
type scratch = { mutable s_kind : kind; mutable s_ready_at : int }

val scratch : unit -> scratch
(** A fresh scratch slot (initialized to a local hit at cycle 0). *)

val n_kinds : int

val of_index : int -> kind
(** The kind at a position [0 .. n_kinds - 1] of declaration order,
    the order of the per-kind counters in
    {!Interleaved_cache.run_batch}'s tallies and in the simulator's
    statistics. *)

val latency : Config.t -> kind -> int
(** Architectural latency of a non-combined access class.
    @raise Invalid_argument on [Combined] (its latency is the residual
    wait of the pending request). *)

val all_kinds : kind list
val kind_to_string : kind -> string
val pp_kind : Format.formatter -> kind -> unit
