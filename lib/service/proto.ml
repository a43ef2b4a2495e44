(* Newline-delimited JSON wire protocol: the strict envelope decoder
   over {!Vliw_report.Json}.  See the mli for the robustness contract;
   the short version is that every way a request line can be wrong maps
   to a structured [decode_error]. *)

module Json = Vliw_report.Json

type json = Json.t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of json list
  | Obj of (string * json) list
  | Fixed of int * float
  | Int64 of int64

let parse = Json.parse
let to_string = Json.to_string
let escape = Json.escape

(* ------------------------------------------------------------ decoder *)

type request =
  | Compile of { bench : string; heuristic : [ `Ibc | `Ipbc ]; chains : bool }
  | Simulate of {
      bench : string;
      arch : Vliw_sim.Machine.arch;
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

let request_kind = function
  | Compile _ -> "compile"
  | Simulate _ -> "simulate"
  | Analyze _ -> "analyze"
  | Explain _ -> "explain"
  | Oracle _ -> "oracle"
  | Sweep_cell _ -> "sweep-cell"
  | Health -> "health"
  | Drain -> "drain"

type envelope = { id : string option; deadline : int option; req : request }
type decode_error = { kind : string; detail : string }

exception Reject of decode_error

let reject kind detail = raise (Reject { kind; detail })

let arch_of_string = function
  | "interleaved" ->
      Some (Vliw_sim.Machine.Word_interleaved { attraction_buffers = false })
  | "interleaved+ab" ->
      Some (Vliw_sim.Machine.Word_interleaved { attraction_buffers = true })
  | "multivliw" -> Some Vliw_sim.Machine.Multivliw
  | "unified1" -> Some (Vliw_sim.Machine.Unified { slow = false })
  | "unified5" -> Some (Vliw_sim.Machine.Unified { slow = true })
  | _ -> None

(* A tiny field cursor: [take] consumes fields out of the object and
   [finish] rejects anything left over, which is what makes unknown
   fields a structured error rather than a silent no-op. *)
let take fields name =
  match List.assoc_opt name !fields with
  | None -> None
  | Some v ->
      fields := List.remove_assoc name !fields;
      Some v

let finish fields =
  match !fields with
  | [] -> ()
  | (k, _) :: _ -> reject "unknown_field" (Printf.sprintf "field %S" k)

let str fields name =
  match take fields name with
  | None -> None
  | Some (String s) -> Some s
  | Some _ -> reject "bad_field" (Printf.sprintf "%S must be a string" name)

let int_field fields name =
  match take fields name with
  | None -> None
  | Some (Int i) -> Some i
  | Some _ -> reject "bad_field" (Printf.sprintf "%S must be an integer" name)

let bool_field fields name =
  match take fields name with
  | None -> None
  | Some (Bool b) -> Some b
  | Some _ -> reject "bad_field" (Printf.sprintf "%S must be a boolean" name)

let pos_int fields name =
  match int_field fields name with
  | Some i when i <= 0 ->
      reject "bad_field" (Printf.sprintf "%S must be positive" name)
  | v -> v

let required kind = function
  | Some v -> v
  | None -> reject "missing_field" (Printf.sprintf "%S is required" kind)

let heuristic_field fields =
  match str fields "heuristic" with
  | None | Some "ipbc" -> `Ipbc
  | Some "ibc" -> `Ibc
  | Some other ->
      reject "bad_field"
        (Printf.sprintf "\"heuristic\" must be \"ibc\" or \"ipbc\", not %S"
           other)

let decode line =
  match parse line with
  | Error msg -> Error { kind = "parse"; detail = msg }
  | Ok (Obj obj) -> (
      try
        let fields = ref obj in
        let id = str fields "id" in
        let deadline = pos_int fields "deadline" in
        let kind = required "req" (str fields "req") in
        let req =
          match kind with
          | "compile" ->
              let bench = required "bench" (str fields "bench") in
              let heuristic = heuristic_field fields in
              let chains = Option.value ~default:true (bool_field fields "chains") in
              Compile { bench; heuristic; chains }
          | "simulate" ->
              let bench = required "bench" (str fields "bench") in
              let arch =
                match str fields "arch" with
                | None -> Vliw_sim.Machine.Word_interleaved { attraction_buffers = true }
                | Some a -> (
                    match arch_of_string a with
                    | Some arch -> arch
                    | None ->
                        reject "bad_field"
                          (Printf.sprintf "unknown architecture %S" a))
              in
              let heuristic = heuristic_field fields in
              let ab_entries = pos_int fields "ab_entries" in
              let hints = Option.value ~default:false (bool_field fields "hints") in
              let trip_cap = pos_int fields "trip_cap" in
              Simulate { bench; arch; heuristic; ab_entries; hints; trip_cap }
          | "analyze" -> Analyze { bench = str fields "bench" }
          | "explain" -> Explain { bench = str fields "bench" }
          | "oracle" ->
              let bench = str fields "bench" in
              let budget = Option.value ~default:2000 (pos_int fields "budget") in
              Oracle { bench; budget }
          | "sweep-cell" ->
              let bench = required "bench" (str fields "bench") in
              let buses = pos_int fields "buses" in
              let ab_entries = pos_int fields "ab_entries" in
              let cache_size = pos_int fields "cache_size" in
              let associativity = pos_int fields "associativity" in
              let trip_cap = Option.value ~default:512 (pos_int fields "trip_cap") in
              Sweep_cell
                { bench; buses; ab_entries; cache_size; associativity; trip_cap }
          | "health" -> Health
          | "drain" -> Drain
          | other -> reject "unknown_request" (Printf.sprintf "%S" other)
        in
        finish fields;
        Ok { id; deadline; req }
      with Reject e -> Error e)
  | Ok _ -> Error { kind = "not_object"; detail = "request must be a JSON object" }
