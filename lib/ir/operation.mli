(** A single IR operation (a DDG node).

    Operations are identified by a dense integer id (their index in the
    owning {!Ddg.t}).  Register operands are plain integers; they are
    informational (communication insertion and liveness analysis work on
    dependence edges, not on register names). *)

type reg = int

type t = {
  id : int;
  opcode : Opcode.t;
  dests : reg list;
  srcs : reg list;
  mem : Mem_access.t option;  (** [Some _] iff [opcode] is [Load]/[Store] *)
}

val make :
  ?dests:reg list -> ?srcs:reg list -> ?mem:Mem_access.t -> id:int -> Opcode.t -> t
(** @raise Invalid_argument if a memory descriptor is given to a
    non-memory opcode or missing from a memory opcode. *)

val is_memory : t -> bool
val is_load : t -> bool
val is_store : t -> bool

val with_id : t -> int -> t

val pp : Format.formatter -> t -> unit
