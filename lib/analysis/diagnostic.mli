(** Diagnostics emitted by the static-analysis passes.

    Every pass tags its findings with a stable pass id (["ddg/endpoint"],
    ["sched/bus-capacity"], ...) so tests can assert that a deliberate
    corruption is caught by the *right* check, a severity, and a location
    string (benchmark/loop/op as the pass knows it).  [Error] means the
    artefact violates an invariant the toolchain relies on; [Warn] means
    it is legal but suspicious; [Info] is measurement-grade observation
    (e.g. lifetimes longer than the II). *)

type severity = Error | Warn | Info

type t = {
  pass : string;  (** stable pass id, ["family/check"] *)
  severity : severity;
  where : string;  (** location: benchmark/loop/op/edge as applicable *)
  message : string;
}

val error : pass:string -> where:string -> ('a, Format.formatter, unit, t) format4 -> 'a
val warn : pass:string -> where:string -> ('a, Format.formatter, unit, t) format4 -> 'a
val info : pass:string -> where:string -> ('a, Format.formatter, unit, t) format4 -> 'a

val n_errors : t list -> int
val n_warnings : t list -> int
val n_infos : t list -> int
val has_errors : t list -> bool

val by_pass : t list -> (string * int) list
(** Diagnostic count per pass id, sorted by pass id. *)

val to_json : t -> Vliw_report.Json.t
(** One JSON object: [{"pass":..., "severity":..., "where":...,
    "message":...}]. *)

val pp : Format.formatter -> t -> unit
(** One line: [severity pass where: message]. *)

val pp_report : ?max_infos:int -> Format.formatter -> t list -> unit
(** Errors first, then warnings, then (up to [max_infos], default 0)
    infos, each on its own line. *)
