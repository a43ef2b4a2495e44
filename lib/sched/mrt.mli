(** Modulo reservation table for one II attempt.

    Tracks, per cycle modulo II: functional units and issue slots per
    cluster, and the shared register buses.  Buses run at half the core
    frequency, so one transfer occupies a bus for [bus_occupancy]
    consecutive cycles; per-cycle usage is bounded by the bus count
    (transfers of successive iterations alternate over the physical
    buses, so the count model is what the hardware can sustain). *)

type t

val create : Vliw_arch.Config.t -> ii:int -> t

val reset : t -> ii:int -> unit
(** Empty the table for a new attempt at [ii], as {!create} would make
    it, reusing its arrays when they are long enough: the scheduler
    keeps one table across its II attempts.  O(reservations made)
    without allocation unless [ii] exceeds every II the table has held.
    @raise Invalid_argument if [ii < 1]. *)

val fu_free : t -> cluster:int -> fu:Vliw_ir.Opcode.fu_class -> cycle:int -> bool
(** FU of the class and an issue slot both available at [cycle mod II]. *)

val reserve_fu : t -> cluster:int -> fu:Vliw_ir.Opcode.fu_class -> cycle:int -> unit
(** @raise Invalid_argument if not free (callers must check first). *)

val issue_free : t -> cluster:int -> cycle:int -> bool
(** An issue slot only — copies go out on the register buses and do not
    occupy a functional unit. *)

val reserve_issue : t -> cluster:int -> cycle:int -> unit
(** @raise Invalid_argument if not free. *)

val reg_bus_free : t -> cycle:int -> bool
(** Can a transfer start at [cycle] without exceeding bus capacity
    anywhere in its occupancy window? *)

val bus_rejections : unit -> int
(** Monotonic per-domain count of {!reg_bus_free} probes that answered
    [false].  This is the only point in the whole compilation pipeline
    where [Config.n_reg_buses] is consulted, so a compile whose
    before/after delta is zero provably produces a byte-identical
    schedule under any larger bus count (every probe that succeeded at
    [b] buses still succeeds at [b' >= b], so the search takes the
    identical path).  The design-space sweep reads the deltas, summed
    over a compile's candidates (via {!Vliw_core.Pipeline.compiled}), to
    prune dominated bus levels;
    {!restore} deliberately does not roll the counter back — rejections
    count search events, not reservation state. *)

val reserve_reg_bus : t -> cycle:int -> unit
(** @raise Invalid_argument if not free. *)

val cluster_load : t -> int -> int
(** Issue slots reserved in a cluster so far (workload-balance input). *)

type snapshot

val snapshot : t -> snapshot
(** A mark in the table's undo journal: every reservation pushes one
    entry, so taking a mark is O(1) and allocates nothing. *)

val restore : t -> snapshot -> unit
(** Undo every reservation made since the mark, in O(reservations since
    the mark) — used when a placement attempt reserved copy resources
    and then failed on a later constraint.  Marks are LIFO: restoring to
    a mark keeps it (and every earlier mark) valid for further
    reservations and restores, but invalidates the marks taken after it.
    @raise Invalid_argument if the mark lies beyond the journal's current
    length (a later mark after an earlier one was restored). *)
