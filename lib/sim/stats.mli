(** Execution statistics gathered by the simulator — exactly the series
    the paper's figures plot: access classification (Figure 4), stall
    time by access class (Figure 6), stall-causing remote-hit factors
    (Figure 5), and compute/stall cycle totals (Figure 8). *)

(** The non-exclusive reasons a stalling remote hit can have
    (Figure 5). *)
type factor =
  | More_than_one_cluster  (** indirect, or stride not multiple of N x I *)
  | Unclear_preferred  (** accesses spread over clusters in the profile *)
  | Not_in_preferred  (** scheduled away from its preferred cluster *)
  | Granularity  (** element bigger than the interleaving factor *)

val all_factors : factor list
val factor_to_string : factor -> string

type t

val create : unit -> t

val count_access : t -> Vliw_arch.Access.kind -> unit
val count_stall : t -> Vliw_arch.Access.kind -> cycles:int -> unit
val count_stall_factor : t -> factor -> unit

val factor_mask : factor list -> int
(** Pack a factor list into a bitmask for {!count_stall_factor_mask} —
    lets the executor precompute each operation's factors once and count
    them in its steady-state loop without touching a list. *)

val count_stall_factor_mask : t -> int -> unit
(** Count every factor present in the mask (allocation-free). *)

val tally_size : int
(** Length of the int tallies {!Vliw_arch.Interleaved_cache.run_batch}
    counts into: access counts and stall cycles by kind, then one count
    per factor in {!factor_mask} bit order. *)

val add_tally : t -> int array -> unit
(** Add a tally's counts.  The counters are integral floats below
    2{^53}, so adding a loop's totals once gives the same bits as
    counting each access. *)

val add_compute : t -> int -> unit

val accesses : t -> Vliw_arch.Access.kind -> int
val total_accesses : t -> int
val stall_of : t -> Vliw_arch.Access.kind -> int
val stall_cycles : t -> int
val compute_cycles : t -> int
val total_cycles : t -> int
val factor_count : t -> factor -> int

val local_hit_ratio : t -> float
(** Local hits over all accesses. *)

val equal : t -> t -> bool
(** Exact (bit-level) equality of every counter — the golden-equivalence
    criterion between the access-plan kernel and the reference
    executor. *)

val accumulate : into:t -> t -> unit
(** Pointwise sum ([into] is mutated); used to aggregate loops into a
    benchmark and benchmarks into means. *)

val scale : t -> float -> t
(** Scaled copy — used for weighted means. *)

val pp : Format.formatter -> t -> unit
