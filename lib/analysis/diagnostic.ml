type severity = Error | Warn | Info

type t = {
  pass : string;
  severity : severity;
  where : string;
  message : string;
}

let make severity ~pass ~where fmt =
  Format.kasprintf (fun message -> { pass; severity; where; message }) fmt

let error ~pass ~where fmt = make Error ~pass ~where fmt
let warn ~pass ~where fmt = make Warn ~pass ~where fmt
let info ~pass ~where fmt = make Info ~pass ~where fmt

let severity_to_string = function
  | Error -> "error"
  | Warn -> "warn"
  | Info -> "info"

let count s ds =
  List.fold_left (fun acc d -> if d.severity = s then acc + 1 else acc) 0 ds

let n_errors ds = count Error ds
let n_warnings ds = count Warn ds
let n_infos ds = count Info ds
let has_errors ds = List.exists (fun d -> d.severity = Error) ds

let by_pass ds =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun d ->
      Hashtbl.replace tbl d.pass
        (1 + Option.value ~default:0 (Hashtbl.find_opt tbl d.pass)))
    ds;
  Hashtbl.fold (fun pass n acc -> (pass, n) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let to_json d =
  Vliw_report.Json.(
    Obj
      [
        ("pass", String d.pass);
        ("severity", String (severity_to_string d.severity));
        ("where", String d.where); ("message", String d.message);
      ])

let pp ppf d =
  Format.fprintf ppf "%-5s %-22s %s: %s"
    (severity_to_string d.severity)
    d.pass d.where d.message

let pp_report ?(max_infos = 0) ppf ds =
  let of_sev s = List.filter (fun d -> d.severity = s) ds in
  List.iter (fun d -> Format.fprintf ppf "%a@." pp d) (of_sev Error);
  List.iter (fun d -> Format.fprintf ppf "%a@." pp d) (of_sev Warn);
  let infos = of_sev Info in
  let rec take n = function
    | d :: rest when n > 0 ->
        Format.fprintf ppf "%a@." pp d;
        take (n - 1) rest
    | rest ->
        if rest <> [] then
          Format.fprintf ppf "... and %d more info diagnostics@."
            (List.length rest)
  in
  take max_infos infos
