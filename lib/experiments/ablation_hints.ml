module Loop = Vliw_ir.Loop
module Pipeline = Vliw_core.Pipeline
module Pool = Vliw_parallel.Pool
module Stats = Vliw_sim.Stats
module Table = Vliw_report.Table
module WL = Vliw_workloads

let arch = Vliw_sim.Machine.Word_interleaved { attraction_buffers = true }
let target_loop = "unquantize"

(* All four (AB size, hints) points of one heuristic share the compiled
   plan, so they run as a single four-cell batch over one trace
   traversal; the two heuristics are the parallel units. *)
let table ctx =
  let specs =
    [ ("IPBC", Context.interleaved `Ipbc); ("IBC", Context.interleaved `Ibc) ]
  in
  let cells =
    List.concat_map
      (fun entries ->
        [
          Context.cell ~ab_entries:entries ~hints:false arch;
          Context.cell ~ab_entries:entries ~hints:true arch;
        ])
      [ 8; 16 ]
  in
  let rows =
    Pool.map_ordered
      (fun (hname, spec) ->
        let per_loop, _ =
          Context.run_batch_loops ctx (WL.Mediabench.find "epicdec") spec cells
        in
        let stall j ~in_loop_only =
          List.fold_left
            (fun acc ((c : Pipeline.compiled), stats) ->
              if
                (not in_loop_only)
                || c.Pipeline.source.Loop.name = target_loop
              then acc + Stats.stall_cycles (List.nth stats j)
              else acc)
            0 per_loop
        in
        List.map
          (fun (entries, j0, j1) ->
            let l0 = stall j0 ~in_loop_only:true
            and l1 = stall j1 ~in_loop_only:true in
            let t0 = stall j0 ~in_loop_only:false
            and t1 = stall j1 ~in_loop_only:false in
            ( Printf.sprintf "%s AB-%d" hname entries,
              [
                float_of_int l0; float_of_int l1;
                (if l0 = 0 then 0.0
                 else 100.0 *. (1.0 -. (float_of_int l1 /. float_of_int l0)));
                float_of_int t0; float_of_int t1;
              ] ))
          [ (8, 0, 1); (16, 2, 3) ])
      specs
    |> List.concat
  in
  Table.make
    ~title:
      "Attractable hints (epicdec): stall cycles of the 19-op-chain loop \
       and the whole benchmark"
    ~columns:
      [ "loop"; "loop+hints"; "loop red. %"; "bench"; "bench+hints" ]
    rows

let run ppf ctx =
  Table.render ~precision:0 ppf (table ctx);
  Format.fprintf ppf
    "(paper: loop stall reduced 20%%/32%% with 8-entry and 13%%/6%% with \
     16-entry buffers for IPBC/IBC)@.@."
