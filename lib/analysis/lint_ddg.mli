(** DDG linter: structural and semantic sanity of a loop body's
    data-dependence graph.

    Pass ids (family ["ddg/"]):
    - ["ddg/op-id"] — operation ids not dense [0..n-1] (error);
    - ["ddg/endpoint"] — edge endpoint outside [0, n) (error);
    - ["ddg/negative-distance"] — iteration distance < 0 (error);
    - ["ddg/absurd-distance"] — iteration distance > 64 (warn);
    - ["ddg/self-zero"] — self-edge with distance 0 (error);
    - ["ddg/duplicate-edge"] — two edges identical in (src, dst, kind,
      distance) (error);
    - ["ddg/redundant-edge"] — same (src, dst, kind) at a larger
      distance, subsumed by the tighter edge (warn);
    - ["ddg/unreachable"] — an operation with no incident edges in a
      multi-operation loop body (warn);
    - ["ddg/copy-opcode"] — a [Copy] opcode in a source DDG: copies are
      scheduler artefacts and never DDG nodes (error);
    - ["ddg/mem-descriptor"] — [Mem_access] inconsistent with the opcode
      class, or geometrically nonsensical (error);
    - ["ddg/mem-stride"] — stride not a multiple of the granularity on a
      direct access (info: legal, but interleaving-phase analysis is
      weaker for such streams);
    - ["ddg/zero-cycle"] — a zero-distance cycle with positive total
      latency: no II can schedule the loop (error);
    - ["ddg/recmii"] — {!Vliw_ir.Mii.rec_mii} disagrees with an
      independent reimplementation (Bellman-Ford positive-cycle
      feasibility, binary-searched per recurrence) (error).

    The raw entry point takes the operation array and edge list directly
    so corrupted graphs that {!Vliw_ir.Ddg.make} would reject (mutation
    tests, future frontends) can still be linted. *)

val lint_raw :
  ?latency:(int -> int) ->
  ?where:string ->
  Vliw_ir.Operation.t array ->
  Vliw_ir.Edge.t list ->
  Diagnostic.t list
(** Lint a graph given as raw parts.  [latency] defaults to the opcode
    default latency; pass the assigned latencies to lint a scheduled
    loop's DDG.  Semantic passes (zero-cycle, recmii) only run when the
    structural passes found no error. *)

val lint :
  ?latency:(int -> int) -> ?where:string -> Vliw_ir.Ddg.t -> Diagnostic.t list

val independent_rec_mii : Vliw_ir.Ddg.t -> latency:(int -> int) -> int
(** The linter's own RecMII: max over its own SCC decomposition of the
    smallest II accepted by Bellman-Ford positive-cycle detection.
    Exposed for tests.  @raise Invalid_argument on a zero-distance
    positive cycle. *)
