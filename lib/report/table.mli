(** Plain-text tables for the experiment drivers: one per reproduced
    figure/table, with aligned columns and an optional stacked-bar
    rendering for the paper's bar charts. *)

type t

val make :
  title:string -> ?note:string -> columns:string list ->
  (string * float list) list -> t
(** Rows are (label, values); every row must have one value per column.
    @raise Invalid_argument on a ragged row. *)

val render : ?precision:int -> Format.formatter -> t -> unit

val render_csv : Format.formatter -> t -> unit

val bar : width:int -> float -> string
(** A horizontal bar for a value in [0, 1]; values outside are clamped. *)

val stacked_bar : width:int -> float list -> string
(** One character class per segment, proportional widths; segments use
    '#', '=', '+', '-', '.' in order. *)

val title : t -> string
val columns : t -> string list
val rows : t -> (string * float list) list
