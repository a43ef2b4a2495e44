(** Cluster-assignment heuristics (Section 4.3.1, Step 4; Section 4.3.2).

    - [All_free] — the BASE behaviour: every instruction goes to the
      cluster minimizing register-to-register communication, balance as
      tie-break.  Used for the unified-cache processor and (as "IBC") for
      the multiVLIW, whose coherence protocol needs no chains.
    - [Ibc] — Interleaved Build Chains: memory instructions are placed
      like any other, but the moment the *first* instruction of a
      memory-dependent chain is scheduled, the rest of its chain is
      pinned to that cluster.
    - [Ipbc] — Interleaved Pre-Build Chains: chains are resolved before
      scheduling; every chain (and hence every memory instruction) is
      pinned to its average preferred cluster, computed from the profiled
      per-cluster access counts of its members.
    - [Preferred_no_chains] — the paper's no-chains ablation: each memory
      instruction is pinned to its own preferred cluster, correctness
      constraints dropped. *)

type policy =
  | All_free
  | Ibc of Chains.t
  | Ipbc of Chains.t * Profile.t
  | Preferred_no_chains of Profile.t

val hooks : Vliw_ir.Ddg.t -> policy -> Vliw_sched.Engine.hooks

val chain_cluster : Chains.t -> Profile.t -> int -> int
(** The average preferred cluster of a chain: the cluster with the
    largest access-weighted vote over the chain's members. *)
