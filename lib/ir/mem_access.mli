(** Static description of a memory operation's access pattern.

    This is the information the paper's compiler extracts statically
    (stride, element size, addressing mode) plus the storage class of the
    referenced symbol, which variable alignment (Section 4.3.4 of the
    paper) needs to decide whether padding applies. *)

(** Storage class of the referenced symbol.  Globals are mapped at the
    same address for every input; stack and heap data move between the
    profile and execution runs unless variable alignment pads them. *)
type storage = Global | Stack | Heap

type t = {
  symbol : string;  (** referenced array / variable *)
  storage : storage;
  offset : int;  (** byte offset from the symbol base at iteration 0 *)
  stride : int;  (** byte stride per original-loop iteration; 0 for scalars *)
  granularity : int;  (** accessed element size in bytes (1, 2, 4 or 8) *)
  footprint : int;
      (** size in bytes of the region the operation walks (the array);
          address generation wraps within it.  0 means "unknown". *)
  indirect : bool;
      (** address depends on a previously loaded value (a[b[i]]); the
          static stride is meaningless for such accesses *)
}

val make :
  ?storage:storage ->
  ?offset:int ->
  ?indirect:bool ->
  ?footprint:int ->
  symbol:string ->
  stride:int ->
  granularity:int ->
  unit ->
  t

val pp : Format.formatter -> t -> unit
