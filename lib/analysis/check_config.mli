(** Machine-description validator (Table 2 consistency).

    Pass ids (family ["config/"]):
    - ["config/validate"] — {!Vliw_arch.Config.validate} rejected the
      configuration (error);
    - ["config/positive"] — a count that must be at least 1 is not
      (clusters, FUs, issue width, buses, occupancy, sizes, AB geometry)
      (error);
    - ["config/geometry"] — cache geometry inconsistent: interleaving
      factor must divide the cache size, every cluster's module must
      hold at least one whole set, the per-cluster subblock must hold at
      least one interleaving unit, AB entries at least one set (error);
    - ["config/latency-ladder"] — the four-level interleaved latency
      table does not provide 4 distinct assignment levels in strictly
      ascending order (error if not ascending or not 4 entries, warn on
      duplicates — the latency-assignment ladder collapses);
    - ["config/latency-derivation"] — remote latencies inconsistent
      with the bus model ([remote hit = local hit + 2 x bus occupancy],
      [remote miss - local miss = remote hit - local hit]) (warn:
      legal configuration, but no longer Table 2's machine). *)

val check : Vliw_arch.Config.t -> Diagnostic.t list
(** Every diagnostic is located at ["config"]. *)
