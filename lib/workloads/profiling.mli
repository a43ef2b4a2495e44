(** The profile run: replay a loop's address streams on a cache-presence
    model and record, per memory operation, its hit rate and the
    distribution of its accesses over the clusters.  This is the
    information the paper's compiler gets from profiling with the
    *profile data set* (Table 1). *)

val profile_loop :
  Vliw_arch.Config.t -> Layout.t -> Vliw_ir.Loop.t -> Vliw_core.Profile.t

val profiler :
  Vliw_arch.Config.t -> Layout.t -> Vliw_ir.Loop.t -> Vliw_core.Profile.t
(** The closure shape {!Vliw_core.Pipeline.compile} expects (it calls it
    on every unrolled candidate).  It profiles afresh on every call;
    callers memoize — through {!memoized}, which the experiment context
    backs with a shared memo and the analyze/explain drivers with one
    table per benchmark. *)

val memoized :
  memo:(string -> (unit -> Vliw_core.Profile.t) -> Vliw_core.Profile.t) ->
  Vliw_arch.Config.t ->
  Layout.t ->
  index:int ->
  Vliw_ir.Loop.t ->
  Vliw_ir.Loop.t ->
  Vliw_core.Profile.t
(** [memoized ~memo cfg layout ~index source] is the {!profiler} for the
    unrolls of source loop number [index], each profile looked up
    through [memo] under the key ["loop=<index>|x<factor>"].  The factor
    is the unrolled loop's op count over the source's, which
    {!Vliw_ir.Unroll.ddg} makes exact; a profile depends on nothing else
    of the loop.  [memo] must scope the key by whatever else varies —
    benchmark, alignment, seed, {!Vliw_arch.Config.profile_fingerprint}.
    Profiles are never mutated once built, so a memo may hand one value
    to many compiles.
    @raise Invalid_argument if the loop's op count is not a multiple of
    the source's. *)

val table_memo :
  unit -> string -> (unit -> Vliw_core.Profile.t) -> Vliw_core.Profile.t
(** A fresh, unsynchronized memo for {!memoized}'s [memo] — for a caller
    that profiles from one domain only, like the analyze and explain
    drivers, each benchmark of which is one pool task. *)
