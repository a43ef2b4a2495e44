(** Compiler "attractable" hints (Section 5.2, last paragraph).

    When a loop schedules more remote-access instructions into one
    cluster than the Attraction Buffer can hold, attracting everything
    thrashes the buffer.  The compiler scores each load by the stall
    reduction it can expect from attraction and marks only the top K as
    attractable, with K bounded by the buffer capacity. *)

val attractable :
  Vliw_arch.Config.t ->
  Vliw_ir.Ddg.t ->
  profile:Profile.t ->
  schedule:Vliw_sched.Schedule.t ->
  bool array
(** Per-operation flag.  A load's score is its expected remote hits per
    profile run (accesses x hit-rate x fraction of references not homed
    at its assigned cluster): remote *hits* are what attraction converts
    into local hits.  K is half the configured buffer entry count — a
    strided load keeps about two subblocks in flight (the one it walks
    and the one it is entering), so K = entries/2 instructions is what
    fits without overflow.  Loads only — stores do not attract data in
    this design. *)
