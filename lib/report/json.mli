(** The one JSON layer of the toolchain: a value type, a strict parser,
    one string escaper and two printers.  Every machine-readable output
    — the service's response lines, [analyze]/[explain]/[sweep --json]
    and the concurrency sanitizer's report — is built as a {!t} and
    printed here, so the escaping rules and the document layout live in
    one place.

    The toolchain deliberately has no JSON dependency. *)

(** A JSON value.  The parser produces every constructor but the two
    print-only ones: numbers with a fraction or exponent parse as
    [Float], everything else integral as [Int]. *)
type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list
  | Fixed of int * float
      (** Print-only: [Fixed (d, f)] prints [f] with exactly [d] digits
          after the decimal point ([Fixed (3, 17.5)] is [17.500]), the
          form wall times, ratios and costs are reported in. *)
  | Int64 of int64
      (** Print-only: a 64-bit integer such as an explorer seed, which
          need not fit in an OCaml [int]. *)

val max_depth : int
(** Nesting bound of {!parse} (defense against pathological input). *)

val parse : string -> (t, string) result
(** Strict parse of one complete document.  Rejects trailing non-space
    bytes, unterminated strings, bad escapes, integers outside [int],
    numbers that overflow to an infinity, nesting deeper than
    {!max_depth}, and anything else off-grammar — with a message that
    carries the byte position. *)

val escape : string -> string
(** JSON string-body escaping (no surrounding quotes): the quote, the
    backslash, [\n], [\r] and [\t] get their short escapes, every other
    byte below 0x20 a [\u00XX] escape; all other bytes pass through. *)

val to_string : t -> string
(** Compact rendering (no whitespace; objects keep field order).  A
    [Float] always reparses as a [Float]; a non-finite [Float] or
    [Fixed], which JSON cannot express, prints as [null]. *)

val document : t -> string
(** The one document layout of the [--json] reports,
    newline-terminated:
{v
{
  "schema_version": 3,
  "summary": {"benchmarks":1,"loops":16},
  "loops": [
    {"bench":"rasta","loop":"fir"},
    {"bench":"rasta","loop":"iir"}
  ],
  "leaderboard": [
  ]
}
v}
    A top-level object prints one field per line with a compact value,
    except that a list-valued field prints one compact element per line
    (and an empty list still takes two lines).  Any other value prints
    compactly. *)
