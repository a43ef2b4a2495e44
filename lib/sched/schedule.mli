(** The result of modulo scheduling one loop: an initiation interval, a
    (cluster, start-cycle) placement per operation, and the explicit
    inter-cluster copy operations the scheduler inserted. *)

type copy = {
  src_op : int;  (** producer whose value is transported *)
  from_cluster : int;
  to_cluster : int;
  start : int;  (** issue cycle of the copy, same iteration as producer *)
}

type t = {
  ii : int;
  n_clusters : int;
  cluster : int array;  (** operation id -> cluster *)
  start : int array;  (** operation id -> issue cycle (flat, >= 0) *)
  copies : copy list;
}

val stage_count : t -> int
(** SC: number of overlapped iterations, [max start / ii + 1]. *)

val n_copies : t -> int

val workload_balance : t -> float
(** The paper's WB: instructions (copies included) in the most loaded
    cluster over total instructions — 1/n_clusters is perfect balance,
    1.0 fully unbalanced. *)

val ops_in_cluster : t -> int -> int
(** Operations (without copies) assigned to a cluster. *)

val copies_from : t -> int -> int
(** Copies issued from a cluster — they occupy its issue slots (and a
    register bus), not its functional units. *)

val cluster_fu_usage :
  Vliw_ir.Ddg.t -> t -> cluster:int -> fu:Vliw_ir.Opcode.fu_class -> int
(** Operations of one functional-unit class placed in one cluster, for
    re-deriving the as-assigned (rather than perfectly balanced)
    resource bound of a schedule. *)

val validate :
  Vliw_arch.Config.t ->
  Vliw_ir.Ddg.t ->
  latency:(int -> int) ->
  ?allow_cross_cluster_mem:bool ->
  t ->
  (unit, string) result
(** Check every dependence and resource constraint:
    - each dependence satisfied modulo II, with cross-cluster register
      flows routed through a copy that fits its own timing window;
    - memory-dependent operations in the same cluster (unless
      [allow_cross_cluster_mem], used by the no-chains ablation);
    - functional-unit / issue-width / bus capacity never exceeded. *)

val pp_kernel : Vliw_ir.Ddg.t -> Format.formatter -> t -> unit
(** Render the modulo-scheduled kernel as a table: one row per cycle of
    the II, one column per cluster, listing the operations (by opcode
    and id, with [stage] marks for later pipeline stages) and inserted
    copies issuing in that slot. *)
