(** Static cluster-locality analysis by abstract interpretation.

    Every word-interleaved access lands on cluster
    [addr / interleaving_factor mod n_clusters], so which cluster an
    operation's address stream touches is fully determined by the
    addresses' residues modulo [n_clusters * interleaving_factor].  The
    analysis interprets each memory descriptor — symbol base, offset,
    stride, footprint wrap, indirect walk, all *after* unrolling baked
    the 4-step assignment's factor into offset and stride — in a
    congruence lattice over exactly those residues, and classifies the
    operation against its assigned cluster:

    - [Local]: every address of every part provably lands on the
      assigned cluster;
    - [Remote]: no address of any part can land on the assigned
      cluster;
    - [Mixed]: the abstract stream spans both.

    The classifications roll up into per-loop bounds that the dynamic
    statistics of a simulation run must satisfy — the conservation law
    {!check_stats} enforces on every benchmark x backend cell of the
    [analyze] sweep. *)

(** The congruence lattice: sets of address residues modulo a fixed
    modulus, ordered by inclusion.  [bot] is the empty stream, [top]
    every residue.  Join is set union; the lattice has finite height
    (the modulus), so {!widen} can stay precise and still terminate. *)
module Lattice : sig
  type t

  val bot : modulus:int -> t

  val of_residue : modulus:int -> int -> t
  (** Singleton abstract stream; the residue is reduced into
      [0, modulus).  @raise Invalid_argument if [modulus < 1]. *)

  val join : t -> t -> t
  (** @raise Invalid_argument on mismatched moduli. *)

  val widen : t -> t -> t
  (** Widening for ascending chains.  The lattice height is bounded by
      the modulus, so widening is simply the join — included (and
      property-tested) to pin down the interface contract:
      [leq a (widen a b)] and [leq b (widen a b)]. *)

  val leq : t -> t -> bool
  val equal : t -> t -> bool
  val mem : t -> int -> bool
  (** [mem t r] — is residue [r mod modulus] in the abstract stream? *)

  val step_closure : t -> int -> t
  (** Smallest superset closed under adding [step]: the abstract effect
      of an arbitrary number of [+step] increments (iteration count is
      abstracted away).  [step_closure t 0 = t]. *)

  val residues : t -> int list
  (** Ascending members of the set. *)

  val cardinal : t -> int
end

val locality_modulus : Vliw_arch.Config.t -> int
(** [n_clusters * interleaving_factor] — the period of the
    address-to-cluster map.  Every coarser congruence (e.g. modulo
    [interleaving_factor * block_size]) projects onto this one. *)

val op_stream :
  Vliw_arch.Config.t ->
  Vliw_workloads.Layout.t ->
  Vliw_ir.Mem_access.t ->
  Lattice.t
(** Abstract address stream of one descriptor under the given layout:
    the residues of [base + offset + k*g] where [g] generates every
    reachable address delta (gcd of stride and footprint for strided
    streams, the granularity for indirect walks).  Sound for any trip
    count — possibly a strict superset of the addresses a finite run
    visits. *)

type verdict = Local | Remote | Mixed

val classify :
  Vliw_arch.Config.t -> assigned:int -> parts:int -> Lattice.t -> verdict
(** Fold the stream's residues (including the [+q*interleaving_factor]
    part offsets of elements wider than one interleaving unit) through
    the address-to-cluster map and compare with the assigned cluster. *)

type op_verdict = {
  op : int;
  assigned : int;  (** cluster the schedule placed the operation on *)
  clusters : int list;  (** clusters the abstract stream can touch *)
  verdict : verdict;
}

type bounds = {
  verdicts : op_verdict list;
  trip : int;
  n_local : int;  (** provably-local ops *)
  n_remote : int;
  n_mixed : int;
  trip_local : int;  (** [trip * n_local] — accesses that must stay local *)
  trip_remote : int;
  trip_total : int;  (** [trip * n_mem_ops] *)
}

val analyze :
  Vliw_arch.Config.t ->
  Vliw_workloads.Layout.t ->
  Vliw_core.Pipeline.compiled ->
  bounds
(** Classify every memory operation of a compiled loop against its
    assigned cluster and roll the verdicts up into the loop's static
    locality bounds. *)

val check_stats :
  attraction_buffers:bool ->
  bounds:bounds ->
  stats:Vliw_sim.Stats.t ->
  where:string ->
  Diagnostic.t list
(** The conservation law: dynamic element classifications must respect
    the static bounds.  With [B = bounds], writing LH/RH/LM/RM/CB for
    the element counts by kind:

    - ["locality/remote-bound"]: RH + RM <= trip_total - trip_local —
      a provably-local element can never be classified remote;
    - ["locality/local-bound"]: LH + LM <= trip_total - trip_remote
      (without attraction buffers), LM <= trip_total - trip_remote
      (with them — an attraction-buffer hit legitimately turns a
      provably-remote word into a local hit);
    - ["locality/local-floor"]: LH + LM + CB >= trip_local;
    - ["locality/remote-floor"]: RH + RM + CB >= trip_remote (without
      attraction buffers only).

    Violating any of these is an [Error]: either the abstract
    interpretation is unsound or the simulator misclassified an
    access. *)

val summary_diag : bounds:bounds -> where:string -> Diagnostic.t
(** One info-severity diagnostic (pass ["locality/summary"]) recording
    the per-loop verdict counts, for the verbose report. *)
