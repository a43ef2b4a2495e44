(** The paper's artefacts by name, in the order [vliw_repro experiment]
    renders them when given no names: the tables, the worked example,
    the figures, the ablations and the CSV export. *)

val all : (string * (Format.formatter -> Context.t -> unit)) list
