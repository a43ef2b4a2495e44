(** Write every figure's tables as CSV files (for external plotting). *)

val export : dir:string -> Context.t -> string list
(** Write each table as [dir/<slug>.csv]; returns the paths written. *)

val frontier : dir:string -> Dse.result -> string
(** Write a sweep's Pareto frontier as [dir/dse-pareto-frontier.csv],
    one row per frontier cell with every swept dimension as its own
    column; returns the path written. *)

val leaderboard :
  path:string -> Vliw_analysis.Explain.oracle_row list -> string
(** Write the oracle optimality leaderboard ([explain --oracle --csv])
    to [path], one row per certified II>MII loop: heuristic II,
    attribution MII, certified floor, proven minimal II (empty when the
    bracket stayed open), infeasibility frontier, verdict, witness
    verification errors, total decisions/conflicts, soundness flag.
    Returns the path written. *)

val run : Format.formatter -> Context.t -> unit
(** Export into [results/] and list the files. *)
