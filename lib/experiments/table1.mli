(** Table 1 self-check: the generated suite's dominant access sizes and
    indirect shares, next to the paper's reported numbers. *)

val run : Format.formatter -> unit
