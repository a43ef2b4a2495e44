(** The memory system of one simulated processor — the dispatch point
    over the three L1 organizations the paper compares. *)

type arch =
  | Word_interleaved of { attraction_buffers : bool }
  | Unified of { slow : bool }
  | Multivliw

val arch_to_string : arch -> string

(** The concrete backend state, exposed so the executor can hoist the
    backend dispatch out of its simulation loop and run an inner loop
    specialized per memory-system implementation. *)
type state =
  | Interleaved_state of Vliw_arch.Interleaved_cache.t
  | Unified_state of Vliw_arch.Unified_cache.t
  | Coherent_state of Vliw_arch.Coherent_cache.t

type t

val create : Vliw_arch.Config.t -> arch -> t
(** @raise Invalid_argument on a geometry {!Vliw_arch.Config.decoder}
    refuses. *)

val state : t -> state
val decode : t -> Vliw_arch.Config.decode

val create_batch :
  Vliw_arch.Config.t -> (arch * int option) list -> t array
(** One machine per swept configuration, in input order — the per-cell
    cache state of a batched executor run.  The [int option] overrides
    [cfg]'s attraction-buffer capacity for that cell (the AB-size
    sweeps' knob); [None] keeps [cfg]'s. *)

val access :
  t ->
  Vliw_arch.Access.scratch ->
  attract:bool ->
  now:int ->
  cluster:int ->
  addr:int ->
  store:bool ->
  unit
(** One word access to a non-negative byte address, decoded and
    dispatched on the backend per call, its result written into the
    caller's scratch slot.  [cluster] is ignored by the
    unified cache, [attract] by every backend but the interleaved
    one. *)

val end_of_loop : t -> unit
(** Attraction-buffer flush / pending-request reset between loops. *)

val traffic_summary : t -> (string * int) list
(** Architecture-specific bus/coherence traffic counters (empty for the
    unified cache, whose traffic is just its misses). *)
