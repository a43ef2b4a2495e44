(** Graphviz export of data-dependence graphs (for debugging schedules
    and for documentation).  Memory operations are drawn as boxes,
    loop-carried edges dashed and labelled with their distance. *)

val ddg : Format.formatter -> Ddg.t -> unit

val scheduled :
  Format.formatter ->
  Ddg.t ->
  cluster:(int -> int) ->
  unit
(** Same graph with nodes coloured by their assigned cluster. *)
