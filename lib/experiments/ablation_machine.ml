module Config = Vliw_arch.Config
module Pool = Vliw_parallel.Pool
module Stats = Vliw_sim.Stats
module Table = Vliw_report.Table
module WL = Vliw_workloads

type axis = Interleaving | Clusters

let arch = Vliw_sim.Machine.Word_interleaved { attraction_buffers = true }

let table axis ctx =
  let base = Context.cfg ctx in
  let configure, column, title, note =
    match axis with
    | Interleaving ->
        ( (fun i -> { base with Config.interleaving_factor = i }),
          Printf.sprintf "I=%dB",
          "Interleaving-factor sweep",
          (* read off the rows: the benchmarks no wider factor beats *)
          fun rows ->
            "fastest at 2-byte interleaving: "
            ^ String.concat ", "
                (List.filter_map
                   (fun (name, c) ->
                     if List.for_all (( <= ) (List.hd c)) c then Some name
                     else None)
                   rows) )
    | Clusters ->
        ( (fun n -> { base with Config.n_clusters = n }),
          Printf.sprintf "%d clusters",
          "Cluster-count sweep",
          fun _ ->
            "more clusters add issue/FU bandwidth but spread the cache \
             thinner and lengthen communication" )
  in
  let values = [ 2; 4; 8 ] in
  let contexts =
    List.map
      (fun v ->
        let cfg = configure v in
        (match Config.validate cfg with
        | Ok () -> ()
        | Error e -> invalid_arg e);
        Context.with_cfg ctx cfg)
      values
  in
  let rows =
    Pool.map_ordered
      (fun bench ->
        ( bench.WL.Benchspec.name,
          List.map
            (fun ctx ->
              float_of_int
                (Stats.total_cycles
                   (Context.run ctx bench (Context.interleaved `Ipbc) ~arch ())))
            contexts ))
      WL.Mediabench.all
  in
  let note = note rows in
  let rows = rows @ [ Context.amean rows ] in
  Table.make
    ~title:(title ^ ": total cycles, IPBC + Attraction Buffers")
    ~note ~columns:(List.map column values) rows

let run axis ppf ctx =
  Table.render ~precision:0 ppf (table axis ctx);
  Format.pp_print_newline ppf ()
