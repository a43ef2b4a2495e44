(** Figure 4: classification of memory accesses under the IPBC heuristic
    for (i) no unrolling + alignment, (ii) OUF unrolling without
    alignment, (iii) OUF unrolling + alignment, and (iv) OUF + alignment
    without memory-dependent chains. *)

val tables : Context.t -> Vliw_report.Table.t list
(** One access-class table per variant plus a local-hit-ratio summary. *)

val local_hit_gains : Context.t -> float * float
(** (gain from alignment under OUF, gain from unrolling under alignment)
    in absolute local-hit-ratio points, averaged over the suite — the
    paper reports +20% and +27%. *)

val run : Format.formatter -> Context.t -> unit
