(** The paper's worked example (Section 4.3.3, Figure 3): an 8-node DDG
    with two recurrences.  REC1 holds two loads (n1: hit rate 0.6, n2:
    hit rate 0.9, both with local-access ratio 0.5); REC2 holds one load
    feeding a divide.  With remote-miss/local-miss/remote-hit/local-hit
    latencies of 15/10/5/1, the paper's latency assignment ends with
    n2 = 1 (local hit), n6 = 1, and n1 = 4 (local hit plus the
    recurrence's slack).

    Node ids: 0 = n1 (load), 1 = n2 (load), 2 = n3 (add), 3 = n4
    (store), 4 = n5 (sub), 5 = n6 (load), 6 = n7 (div), 7 = n8 (add). *)

val ddg : unit -> Vliw_ir.Ddg.t
val profile : unit -> Vliw_core.Profile.t

val n1 : int
val n2 : int
val n6 : int

val benefit_table :
  Context.t -> (string * int * float * float * float) list
(** STEP-1 rows: (node label, target latency, delta II, delta stall, B)
    for every candidate reduction of n1 and n2 from remote miss. *)

val assigned : Context.t -> int array
(** Run the full latency assignment on the example. *)

val run : Format.formatter -> Context.t -> unit
