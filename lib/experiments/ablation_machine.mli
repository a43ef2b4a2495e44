(** The machine-shape sweeps: total cycles over the suite, IPBC with a
    word-interleaved cache and Attraction Buffers, on fresh contexts per
    machine (the configuration changes, so nothing is shared).  Every
    other Table-2 parameter, total L1 capacity and bus counts included,
    stays put.

    - {!Interleaving} — Section 5.1's discussion: the interleaving
      factor should match the dominant access size ("if a processor is
      to be built for the gsm family of applications, a 2-byte
      interleaving factor would match better the applications'
      characteristics").  I in {2, 4, 8} bytes; the table's note names
      the benchmarks no wider factor beats.
    - {!Clusters} — the introduction's motivation for fully distributed
      designs: 2, 4 and 8 clusters; only the partitioning changes. *)

type axis = Interleaving | Clusters

val table : axis -> seed:int -> Vliw_report.Table.t

val run : axis -> Format.formatter -> Context.t -> unit
