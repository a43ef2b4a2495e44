(** Imperative construction of DDGs for workload generators, examples and
    tests.  Ids are handed out densely in [add] order. *)

type t

val create : unit -> t

val fresh_reg : t -> Operation.reg

val add :
  t ->
  ?dests:Operation.reg list ->
  ?srcs:Operation.reg list ->
  ?mem:Mem_access.t ->
  Opcode.t ->
  int
(** Add an operation; returns its id. *)

val dep : t -> ?kind:Edge.kind -> ?distance:int -> int -> int -> unit
(** [dep t src dst] adds a dependence edge. *)

val flow : t -> ?distance:int -> int -> int -> unit
(** [flow t src dst] adds a register-flow dependence ([Reg_flow]). *)

val build : t -> Ddg.t
(** Finalize.  The builder may be reused afterwards (further additions do
    not affect already-built graphs). *)
