(** Machine configuration (Table 2 of the paper).

    One record describes the whole processor family; which L1 organization
    is in force (word-interleaved, unified, multiVLIW) is chosen by the
    simulator, not here. *)

type t = {
  n_clusters : int;  (** 4 *)
  int_fus_per_cluster : int;  (** 1 *)
  fp_fus_per_cluster : int;  (** 1 *)
  mem_fus_per_cluster : int;  (** 1 *)
  issue_width_per_cluster : int;  (** issue slots per cluster per cycle *)
  n_reg_buses : int;  (** 4, at 1/2 core frequency *)
  n_mem_buses : int;  (** 4, at 1/2 core frequency *)
  bus_occupancy : int;  (** cycles one transfer holds a bus (2: half freq.) *)
  reg_copy_latency : int;  (** producer->consumer cycles across clusters *)
  cache_size : int;  (** total L1 bytes (8KB) *)
  block_size : int;  (** 32 *)
  associativity : int;  (** 2 *)
  interleaving_factor : int;  (** bytes per interleaving unit (4) *)
  lat_local_hit : int;  (** 1 *)
  lat_remote_hit : int;  (** 5 = bus + access + bus *)
  lat_local_miss : int;  (** 10 *)
  lat_remote_miss : int;  (** 15 *)
  lat_unified_fast : int;  (** optimistic unified-cache hit (1) *)
  lat_unified_slow : int;  (** realistic unified-cache hit (5) *)
  lat_next_level : int;  (** 10-cycle total, always hits *)
  ab_entries : int;  (** attraction-buffer entries per cluster (16) *)
  ab_associativity : int;  (** 2 *)
}

val default : t
(** The configuration of Table 2. *)

val module_size : t -> int
(** Bytes of one cache module ([cache_size / n_clusters]). *)

val subblock_size : t -> int
(** Bytes of a block mapped to one cluster
    ([block_size / n_clusters], 8 for the default configuration). *)

val max_unroll : t -> int
(** N x I: the paper's maximum unrolling factor, in *iterations* — used
    with byte strides (see {!Vliw_core.Unroll_select}). *)

val cluster_of_addr : t -> int -> int
(** Home cluster of a byte address under word interleaving. *)

val block_of_addr : t -> int -> int

val validate : t -> (unit, string) result
(** Check internal consistency (powers of two, divisibility). *)

val fingerprint : t -> string
(** A short hex digest covering every field — equal iff the two
    configurations are equal.  Used to key compilation memos so entries
    can never be reused across differing machine configs. *)

val profile_fingerprint : t -> string
(** The projection of a configuration onto the fields a profile run
    depends on — cluster count, interleaving factor, cache size, block
    size and associativity
    ([c<clusters>·i<interleave>·s<size>·b<block>·a<ways>]).  Two configs
    with equal projections give equal
    {!Vliw_workloads.Profiling.profile_loop} results under layouts of
    equal alignment, run and seed, which is what lets the experiment
    context share profiles across configs that differ only in buses,
    latencies or AB shape. *)

val short_name : t -> string
(** Compact label over the schedule-relevant dimensions only
    ([c<clusters>·i<interleave>·b<reg buses>·o<occupancy>]) — the
    design-space sweep's plan-group tag.  Cache geometry and
    attraction-buffer shape are deliberately excluded: they do not
    affect scheduling at the sweep's shared base geometry. *)

val pp : Format.formatter -> t -> unit
(** Render the configuration as the rows of Table 2. *)
