(** The [explain] driver: static diagnosis of every compiled schedule.

    Where [analyze] asks "does the toolchain hold its invariants?",
    [explain] asks "why is this schedule exactly this fast?".  For every
    benchmark x target x loop it compiles (no simulation), runs the
    {!Attribution} bound tower plus the {!Locality} classifier, and
    renders per loop: achieved II against both MIIs, the binding
    constraint, the ranked cycle-loss budget, the provable locality
    verdict counts, the unroll candidates the selective search weighed,
    and any missed-locality lints. *)

type loop_report = {
  bench : string;
  loop : string;
  target : Vliw_core.Pipeline.target;
  unroll_factor : int;
  considered : (int * int) list;
      (** unroll candidates (factor, estimated Texec) the search scored *)
  attribution : Attribution.report;
  locality : Locality.bounds option;
      (** [None] for targets without cluster-locality (unified,
          multiVLIW) *)
  lints : Diagnostic.t list;  (** missed-locality warnings *)
  oracle : Oracle.certification option;
      (** present when the oracle ran and this loop had II > MII *)
}

type oracle_row = {
  o_bench : string;
  o_loop : string;
  o_target : string;
  o_unroll : int;
  o_attr_mii : int;  (** the attribution tower's MII (incl. anti/out) *)
  o_cert : Oracle.certification;
}

type summary = {
  benchmarks : int;
  loops : int;
  gaps : int;  (** loops whose achieved II exceeds their MII *)
  lints : int;
  leaderboard : oracle_row list;
      (** one row per II>MII loop when the oracle ran; [] otherwise *)
}

val schema_version : int
(** Version stamp of the [explain --json] (and [analyze --json])
    document shape; bumped on any breaking field change. *)

val summary_json : summary -> Vliw_report.Json.t
(** The counts of a summary (not its leaderboard) as the JSON object
    [explain --json] prints under ["summary"]. *)

val explain_bench :
  Vliw_arch.Config.t ->
  seed:int ->
  ?oracle_budget:int ->
  ?oracle_memo:
    (string -> (unit -> Oracle.certification) -> Oracle.certification) ->
  Vliw_workloads.Benchspec.t ->
  loop_report list
(** All loop reports of one benchmark, every target of the [analyze]
    matrix, loops in program order.  When [oracle_budget] is given, each
    II>MII loop is certified through {!Oracle.certify} (memoized via
    [oracle_memo], keyed on bench/loop/target/seed/budget/config). *)

val run_all :
  ?cfg:Vliw_arch.Config.t ->
  ?seed:int ->
  ?benchmarks:string list ->
  ?json:bool ->
  ?oracle_budget:int ->
  ?oracle_memo:
    (string -> (unit -> Oracle.certification) -> Oracle.certification) ->
  Format.formatter ->
  summary
(** Explain the given benchmarks (default: the whole suite); benchmarks
    run through the parallel domain pool, output is deterministic.
    [json] emits one machine-readable JSON document instead of the
    table.  [oracle_budget] switches the optimality leaderboard on: per
    II>MII loop, heuristic II / proven optimal II / verdict, with
    deterministic decision-count budgets so the output is byte-identical
    for any [--jobs].  [oracle_memo] (default: compute directly) lets
    the caller back certifications with a cache. *)
