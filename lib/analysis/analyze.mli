(** The whole-toolchain analysis driver.

    Runs every pass family — config validator, DDG linter, deep schedule
    verifier, address-plan cross-check and sim-invariant auditor — over
    every benchmark of the suite, on all four memory-system backends and
    both cluster heuristics, and renders a per-benchmark summary plus
    every error/warn diagnostic.  It compiles and simulates only through
    the {!Context} it is handed, so it shares that context's memos with
    {!Explain} and the resident service. *)

type summary = {
  benchmarks : int;
  loops : int;  (** loop x target compilations checked *)
  cells : int;  (** benchmark x backend x heuristic simulation cells *)
  errors : int;
  warnings : int;
  infos : int;
}

val compiled_diags :
  Vliw_arch.Config.t -> Vliw_core.Pipeline.compiled -> Diagnostic.t list
(** Linter (assigned latencies) + deep verifier over one compilation
    result — the body of the [--check] hook. *)

val install_check_hook : unit -> unit
(** Make every subsequent {!Vliw_core.Pipeline.compile} run
    {!compiled_diags} on its result and raise [Failure] (with the full
    report) on any error-severity diagnostic.  Idempotent; this is the
    [--check] flag of the CLI. *)

val run_all :
  ?ctx:Context.t ->
  ?seed:int ->
  ?benchmarks:string list ->
  ?verbose:bool ->
  ?json:bool ->
  Format.formatter ->
  summary
(** Analyze the given benchmarks (default: the whole suite) through
    [ctx] (default: a fresh [Context.create ?seed ()]) and print the
    report.  Each target's loops come from {!Context.run_batch_loops},
    one batch per target: the AB-on and AB-off backends of IPBC and IBC
    share one traversal of each loop's address trace, and the unified
    and multiVLIW targets are one cell each.  Benchmarks are analyzed
    through the parallel domain pool; the rendered report is
    deterministic regardless of job count.  [verbose] additionally
    prints info-severity diagnostics.  [json] replaces the
    human-readable report with one machine-readable JSON document
    (summary, per-benchmark counts, diagnostics — infos included only
    with [verbose]).
    @raise Invalid_argument if both [ctx] and [seed] are given. *)

val ok : summary -> bool
(** No error-severity diagnostics. *)

val summary_fields : summary -> (string * Vliw_report.Json.t) list
(** The six counts as JSON fields, in record order; the ["summary"] of
    the [--json] document adds ["ok"]. *)
