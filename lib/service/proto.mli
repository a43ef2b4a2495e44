(** Wire protocol of the resident compile service: newline-delimited
    JSON, one request per line, one response line per request.

    The value type, the strict parser and the printer are
    {!Vliw_report.Json}'s, re-exported here for the protocol's clients.
    This module adds the decoder that maps a parsed document onto the
    closed request vocabulary with structured errors for every way a
    line can be wrong — the service's first robustness layer: malformed
    input must yield an ["error"] response, never an exception and never
    a silent drop. *)

type json = Vliw_report.Json.t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of json list
  | Obj of (string * json) list
  | Fixed of int * float
  | Int64 of int64

val parse : string -> (json, string) result
(** {!Vliw_report.Json.parse}. *)

val to_string : json -> string
(** {!Vliw_report.Json.to_string}. *)

val escape : string -> string
(** {!Vliw_report.Json.escape}. *)

(** One decoded service request. *)
type request =
  | Compile of { bench : string; heuristic : [ `Ibc | `Ipbc ]; chains : bool }
  | Simulate of {
      bench : string;
      arch : Vliw_sim.Machine.arch;
          (** on the wire: "interleaved", "interleaved+ab", "multivliw",
              "unified1" or "unified5" *)
      heuristic : [ `Ibc | `Ipbc ];
      ab_entries : int option;
      hints : bool;
      trip_cap : int option;
    }
  | Analyze of { bench : string option }
  | Explain of { bench : string option }
  | Oracle of { bench : string option; budget : int }
  | Sweep_cell of {
      bench : string;
      buses : int option;
      ab_entries : int option;
      cache_size : int option;
      associativity : int option;
      trip_cap : int;
    }
  | Health
  | Drain

val request_kind : request -> string
(** The wire name of the request ("compile", "simulate", ...). *)

type envelope = {
  id : string option;  (** client-chosen correlation id, echoed back *)
  deadline : int option;  (** work-unit budget; [None] = effectively unbounded *)
  req : request;
}

type decode_error = {
  kind : string;
      (** one of "parse", "not_object", "unknown_request", "bad_field",
          "unknown_field", "missing_field" *)
  detail : string;
}

val decode : string -> (envelope, decode_error) result
(** Decode one request line.  Strict: the top level must be an object
    with a string ["req"] naming a known request, every other field must
    belong to that request's schema with the right type, and unknown
    fields are rejected rather than ignored (a typo'd option silently
    doing nothing is a robustness bug, not a convenience). *)
