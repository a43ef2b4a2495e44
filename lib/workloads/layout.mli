(** Data layout of one benchmark run: where every symbol lives, and the
    address stream of every memory operation.

    Two independent layouts stand in for the paper's two data sets:
    - [Profile_run] — the input used to profile (hit rates, preferred
      clusters);
    - [Execution_run] — the input used to measure.

    Global symbols get the same base address in both runs (the linker
    fixed it).  Stack and heap symbols get run-dependent bases —
    *unless* variable alignment is on, in which case stack frames and
    [malloc] results are padded to an N x I boundary (Section 4.3.4), so
    their interleaving phase is the same in every run. *)

type run = Profile_run | Execution_run

type t

val create : Vliw_arch.Config.t -> aligned:bool -> run:run -> seed:int -> t

val base_of : t -> Vliw_ir.Mem_access.t -> int
(** Base address of the access's symbol in this layout (cached: the two
    mentions of a symbol agree). *)

val address : t -> Vliw_ir.Mem_access.t -> op:int -> iter:int -> int
(** Byte address of iteration [iter] of an operation: for strided
    accesses [base + offset + (iter * stride) mod footprint]; for
    indirect accesses a deterministic pseudo-random element of the
    footprint.  Always aligned to the access granularity. *)

val addr_fn :
  t -> Vliw_ir.Ddg.t -> op:int -> iter:int -> int
(** The simulator-facing closure over a whole DDG.  Staged: apply it to
    the layout and DDG *once* — that application precomputes a flat
    per-operation address plan, and the resulting closure is pure int
    arithmetic (no symbol hashing or hashtable probes per access).
    @raise Invalid_argument if [op] is not a memory operation. *)
