module Config = Vliw_arch.Config
module Latency_assign = Vliw_core.Latency_assign
module D = Diagnostic

let check (cfg : Config.t) =
  let where = "config" in
  let diags = ref [] in
  let add d = diags := d :: !diags in
  (match Config.validate cfg with
  | Ok () -> ()
  | Error msg -> add (D.error ~pass:"config/validate" ~where "%s" msg));
  let positive =
    [
      ("n_clusters", cfg.Config.n_clusters);
      ("int_fus_per_cluster", cfg.Config.int_fus_per_cluster);
      ("fp_fus_per_cluster", cfg.Config.fp_fus_per_cluster);
      ("mem_fus_per_cluster", cfg.Config.mem_fus_per_cluster);
      ("issue_width_per_cluster", cfg.Config.issue_width_per_cluster);
      ("n_reg_buses", cfg.Config.n_reg_buses);
      ("n_mem_buses", cfg.Config.n_mem_buses);
      ("bus_occupancy", cfg.Config.bus_occupancy);
      ("reg_copy_latency", cfg.Config.reg_copy_latency);
      ("cache_size", cfg.Config.cache_size);
      ("block_size", cfg.Config.block_size);
      ("associativity", cfg.Config.associativity);
      ("interleaving_factor", cfg.Config.interleaving_factor);
      ("ab_entries", cfg.Config.ab_entries);
      ("ab_associativity", cfg.Config.ab_associativity);
    ]
  in
  List.iter
    (fun (name, v) ->
      if v < 1 then
        add (D.error ~pass:"config/positive" ~where "%s = %d must be >= 1" name v))
    positive;
  if List.for_all (fun (_, v) -> v >= 1) positive then begin
    if cfg.Config.cache_size mod cfg.Config.interleaving_factor <> 0 then
      add
        (D.error ~pass:"config/geometry" ~where
           "interleaving factor %dB does not divide the %dB cache"
           cfg.Config.interleaving_factor cfg.Config.cache_size);
    let module_size = cfg.Config.cache_size / cfg.Config.n_clusters in
    let set_size = cfg.Config.block_size * cfg.Config.associativity in
    if module_size < set_size || module_size mod set_size <> 0 then
      add
        (D.error ~pass:"config/geometry" ~where
           "a %dB cache module cannot hold whole %d-way sets of %dB blocks"
           module_size cfg.Config.associativity cfg.Config.block_size);
    if cfg.Config.block_size / cfg.Config.n_clusters < cfg.Config.interleaving_factor
    then
      add
        (D.error ~pass:"config/geometry" ~where
           "the %dB per-cluster subblock is smaller than one %dB \
            interleaving unit"
           (cfg.Config.block_size / cfg.Config.n_clusters)
           cfg.Config.interleaving_factor);
    if cfg.Config.ab_entries < cfg.Config.ab_associativity then
      add
        (D.error ~pass:"config/geometry" ~where
           "%d AB entries cannot form one %d-way set" cfg.Config.ab_entries
           cfg.Config.ab_associativity);
    (* The latency-assignment ladder must offer 4 ascending levels. *)
    let ladder = Latency_assign.levels cfg Latency_assign.Four_level in
    let ascending = List.rev ladder in
    (if List.length ascending <> 4
        || List.sort compare ascending <> ascending
     then
       add
         (D.error ~pass:"config/latency-ladder" ~where
            "latency table [%s] is not 4 ascending assignment levels"
            (String.concat "; " (List.map string_of_int ascending)))
     else
       let distinct = List.sort_uniq compare ascending in
       if List.length distinct <> 4 then
         add
           (D.warn ~pass:"config/latency-ladder" ~where
              "latency table [%s] has duplicate levels: the assignment \
               ladder collapses to %d levels"
              (String.concat "; " (List.map string_of_int ascending))
              (List.length distinct)));
    (* Table 2 derives remote latencies from the bus model: one bus hop
       each way at half frequency around the access. *)
    let bus_round_trip = 2 * cfg.Config.bus_occupancy in
    if cfg.Config.lat_remote_hit <> cfg.Config.lat_local_hit + bus_round_trip
    then
      add
        (D.warn ~pass:"config/latency-derivation" ~where
           "remote hit %d != local hit %d + bus round trip %d"
           cfg.Config.lat_remote_hit cfg.Config.lat_local_hit bus_round_trip);
    (* Table 2: a remote miss is a remote request that then misses —
       the full remote-hit path stacked on the local-miss fill. *)
    if
      cfg.Config.lat_remote_miss
      <> cfg.Config.lat_local_miss + cfg.Config.lat_remote_hit
    then
      add
        (D.warn ~pass:"config/latency-derivation" ~where
           "remote miss %d != local miss %d + remote hit %d"
           cfg.Config.lat_remote_miss cfg.Config.lat_local_miss
           cfg.Config.lat_remote_hit)
  end;
  List.rev !diags
