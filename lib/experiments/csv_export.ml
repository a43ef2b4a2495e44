module Table = Vliw_report.Table

let slug title =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | '0' .. '9' -> c
      | 'A' .. 'Z' -> Char.lowercase_ascii c
      | _ -> '-')
    title
  |> fun s ->
  (* squeeze dashes and trim *)
  let buf = Buffer.create (String.length s) in
  let last_dash = ref true in
  String.iter
    (fun c ->
      if c = '-' then begin
        if not !last_dash then Buffer.add_char buf '-';
        last_dash := true
      end
      else begin
        Buffer.add_char buf c;
        last_dash := false
      end)
    s;
  let s = Buffer.contents buf in
  let s = if String.length s > 60 then String.sub s 0 60 else s in
  if String.length s > 0 && s.[String.length s - 1] = '-' then
    String.sub s 0 (String.length s - 1)
  else s

let all_tables ctx =
  Fig4.tables ctx @ Fig5.tables ctx @ Fig6.tables ctx
  @ [ Fig7.table ctx ]
  @ Fig8.tables ctx
  @ [
      Ablation_machine.table Interleaving ~seed:7;
      Ablation_machine.table Clusters ~seed:7;
    ]

let write_table ~dir t =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Filename.concat dir (slug (Table.title t) ^ ".csv") in
  let oc = open_out path in
  let ppf = Format.formatter_of_out_channel oc in
  Table.render_csv ppf t;
  Format.pp_print_flush ppf ();
  close_out oc;
  path

let export ~dir ctx = List.map (write_table ~dir) (all_tables ctx)

(* The sweep's frontier as one CSV, row per frontier cell (every
   dimension spelled out, not just the label, so external tooling can
   pivot on any axis). *)
let frontier ~dir (r : Dse.result) =
  let t =
    Table.make ~title:"dse pareto frontier"
      ~columns:
        [
          "clusters"; "interleaving"; "buses"; "occupancy"; "cache_size";
          "associativity"; "ab"; "cycles"; "traffic"; "cost";
        ]
      (List.map
         (fun (c : Dse.cell_result) ->
           ( Dse.cell_label c,
             [
               float_of_int c.Dse.r_clusters;
               float_of_int c.Dse.r_interleaving;
               float_of_int c.Dse.r_buses;
               float_of_int c.Dse.r_occupancy;
               float_of_int c.Dse.r_cache_size;
               float_of_int c.Dse.r_associativity;
               float_of_int c.Dse.r_ab;
               float_of_int c.Dse.r_cycles;
               float_of_int c.Dse.r_traffic;
               c.Dse.r_cost;
             ] ))
         r.Dse.frontier)
  in
  write_table ~dir t

(* The oracle leaderboard as one CSV at an explicit path (explain
   --csv).  Mixed string/int cells, so it bypasses the float-typed
   Table and writes rows directly; fields here never need quoting
   (bench/loop/target/verdict are [a-z0-9_-] identifiers). *)
let leaderboard ~path rows =
  let oc = open_out path in
  output_string oc
    "bench,loop,target,unroll,heuristic_ii,attribution_mii,floor,minimal_ii,infeasible_below,verdict,witness_errors,decisions,conflicts,sound\n";
  List.iter
    (fun (row : Vliw_analysis.Explain.oracle_row) ->
      let c = row.Vliw_analysis.Explain.o_cert in
      let module O = Vliw_analysis.Oracle in
      Printf.fprintf oc "%s,%s,%s,%d,%d,%d,%d,%s,%d,%s,%d,%d,%d,%b\n"
        row.Vliw_analysis.Explain.o_bench row.Vliw_analysis.Explain.o_loop
        row.Vliw_analysis.Explain.o_target row.Vliw_analysis.Explain.o_unroll
        c.O.heuristic_ii row.Vliw_analysis.Explain.o_attr_mii c.O.floor
        (match c.O.minimal_ii with Some m -> string_of_int m | None -> "")
        c.O.infeasible_below
        (O.verdict_to_string c.O.verdict)
        (Vliw_analysis.Diagnostic.n_errors c.O.witness_diags)
        c.O.decisions c.O.conflicts (O.sound c))
    rows;
  close_out oc;
  path

let run ppf ctx =
  let paths = export ~dir:"results" ctx in
  Format.fprintf ppf "wrote %d CSV files:@." (List.length paths);
  List.iter (fun p -> Format.fprintf ppf "  %s@." p) paths
