(** One benchmark of the suite: a named set of loop kernels.

    The kernels' modulo-scheduled loops stand for the ~80% of the
    dynamic instruction stream the paper modulo-schedules; each loop
    carries a weight for the workload-balance weighted mean. *)

type t = {
  name : string;
  description : string;
  kernels : Kernel.spec list;
}

val loops : t -> Vliw_ir.Loop.t list

val dominant_size : t -> int * float
(** (granularity in bytes, share of dynamic memory accesses) of the most
    common access size — the "Main data size" column of Table 1. *)

val indirect_share : t -> float
(** Fraction of dynamic memory accesses that are indirect. *)
