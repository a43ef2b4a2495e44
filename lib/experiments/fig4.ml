module Access = Vliw_arch.Access
module Pool = Vliw_parallel.Pool
module Stats = Vliw_sim.Stats
module Table = Vliw_report.Table
module US = Vliw_core.Unroll_select
module WL = Vliw_workloads

let variants =
  [
    ("no-unroll+align", Context.interleaved ~strategy:US.No_unrolling `Ipbc);
    ( "OUF w/o align",
      Context.interleaved ~strategy:US.Ouf_unrolling ~aligned:false `Ipbc );
    ("OUF+align", Context.interleaved ~strategy:US.Ouf_unrolling `Ipbc);
    ( "OUF+align no-chains",
      Context.interleaved ~chains:false ~strategy:US.Ouf_unrolling `Ipbc );
  ]

let arch = Vliw_sim.Machine.Word_interleaved { attraction_buffers = false }

let classes =
  [
    Access.Local_hit; Access.Remote_hit; Access.Local_miss;
    Access.Remote_miss; Access.Combined;
  ]

let fractions stats =
  let total = float_of_int (max 1 (Stats.total_accesses stats)) in
  List.map (fun k -> float_of_int (Stats.accesses stats k) /. total) classes

(* Every (benchmark, variant) cell is simulated once: per benchmark, its
   stats under each variant, keyed by label in [variants] order.  The
   per-variant tables, the summary and the headline gains all derive
   from this. *)
let suite_stats ctx =
  Pool.map_ordered
    (fun bench ->
      ( bench.WL.Benchspec.name,
        List.map
          (fun (label, spec) -> (label, Context.run ctx bench spec ~arch ()))
          variants ))
    WL.Mediabench.all

let tables_of suite =
  let per_variant =
    List.map
      (fun (label, _) ->
        let rows =
          List.map (fun (n, ss) -> (n, fractions (List.assoc label ss))) suite
        in
        let rows = rows @ [ Context.amean rows ] in
        Table.make
          ~title:(Printf.sprintf "Figure 4 [%s]: memory access classes" label)
          ~columns:
            [ "local hit"; "remote hit"; "local miss"; "remote miss"; "comb" ]
          rows)
      variants
  in
  let summary =
    let rows =
      List.map
        (fun (n, ss) ->
          (n, List.map (fun (_, s) -> Stats.local_hit_ratio s) ss))
        suite
    in
    let rows = rows @ [ Context.amean rows ] in
    Table.make ~title:"Figure 4 summary: local-hit ratio per variant (IPBC)"
      ~columns:(List.map fst variants) rows
  in
  per_variant @ [ summary ]

let gains_of suite =
  let mean_local_hit label =
    List.fold_left
      (fun acc (_, ss) -> acc +. Stats.local_hit_ratio (List.assoc label ss))
      0.0 suite
    /. float_of_int (List.length suite)
  in
  let align_gain =
    mean_local_hit "OUF+align" -. mean_local_hit "OUF w/o align"
  in
  let unroll_gain =
    mean_local_hit "OUF+align" -. mean_local_hit "no-unroll+align"
  in
  (align_gain, unroll_gain)

let tables ctx = tables_of (suite_stats ctx)
let local_hit_gains ctx = gains_of (suite_stats ctx)

let run ppf ctx =
  let suite = suite_stats ctx in
  List.iter (fun t -> Table.render ppf t; Format.pp_print_newline ppf ()) (tables_of suite);
  let align_gain, unroll_gain = gains_of suite in
  Format.fprintf ppf
    "Local-hit ratio gain from variable alignment (OUF): %+.1f points \
     (paper: ~+20)@.Local-hit ratio gain from OUF unrolling (aligned): %+.1f \
     points (paper: ~+27)@."
    (100.0 *. align_gain) (100.0 *. unroll_gain)
