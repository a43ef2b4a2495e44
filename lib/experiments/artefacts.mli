(** The paper's artefacts by name, in the order the CLI and the bench
    harness list them: the tables, the worked example, the figures, the
    ablations and the CSV export. *)

val all : (string * (Format.formatter -> Context.t -> unit)) list
