(** The centralized L1 data cache of the baseline clustered architecture:
    8KB, 5 read/write ports, with either an optimistic 1-cycle or a
    realistic 5-cycle total access time (Section 5.1 of the paper).
    Every access is "local"; classification uses [Local_hit]/[Local_miss]
    and [Combined] for requests merged with an in-flight fill. *)

type t

val create : slow:bool -> Config.t -> t
(** [slow:true] selects the 5-cycle access time, [slow:false] 1 cycle. *)

val hit_latency : t -> int

val access : t -> Access.scratch -> now:int -> block:int -> unit
(** One access to [block] ({!Config.block_of} of the address) at cycle
    [now]; the result is written into the caller's scratch slot. *)

val end_of_loop : t -> unit
(** Forget pending-fill bookkeeping between loops. *)
