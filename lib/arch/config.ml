type t = {
  n_clusters : int;
  int_fus_per_cluster : int;
  fp_fus_per_cluster : int;
  mem_fus_per_cluster : int;
  issue_width_per_cluster : int;
  n_reg_buses : int;
  n_mem_buses : int;
  bus_occupancy : int;
  reg_copy_latency : int;
  cache_size : int;
  block_size : int;
  associativity : int;
  interleaving_factor : int;
  lat_local_hit : int;
  lat_remote_hit : int;
  lat_local_miss : int;
  lat_remote_miss : int;
  lat_unified_fast : int;
  lat_unified_slow : int;
  lat_next_level : int;
  ab_entries : int;
  ab_associativity : int;
}

let default =
  {
    n_clusters = 4;
    int_fus_per_cluster = 1;
    fp_fus_per_cluster = 1;
    mem_fus_per_cluster = 1;
    issue_width_per_cluster = 4;
    n_reg_buses = 4;
    n_mem_buses = 4;
    bus_occupancy = 2;
    reg_copy_latency = 2;
    cache_size = 8192;
    block_size = 32;
    associativity = 2;
    interleaving_factor = 4;
    lat_local_hit = 1;
    lat_remote_hit = 5;
    lat_local_miss = 10;
    lat_remote_miss = 15;
    lat_unified_fast = 1;
    lat_unified_slow = 5;
    lat_next_level = 10;
    ab_entries = 16;
    ab_associativity = 2;
  }

let module_size t = t.cache_size / t.n_clusters
let subblock_size t = t.block_size / t.n_clusters
let max_unroll t = t.n_clusters * t.interleaving_factor

let is_pow2 x = x > 0 && x land (x - 1) = 0

type decode = {
  block_shift : int;
  unit_shift : int;
  cluster_shift : int;
  cluster_mask : int;
}

let decoder t =
  let log2 field x =
    if not (is_pow2 x) then
      invalid_arg ("Config.decoder: " ^ field ^ " must be a power of two");
    let rec go k = if 1 lsl k = x then k else go (k + 1) in
    go 0
  in
  {
    block_shift = log2 "block_size" t.block_size;
    unit_shift = log2 "interleaving_factor" t.interleaving_factor;
    cluster_shift = log2 "n_clusters" t.n_clusters;
    cluster_mask = t.n_clusters - 1;
  }

let block_of d addr = addr lsr d.block_shift
let home_of d addr = (addr lsr d.unit_shift) land d.cluster_mask

let validate t =
  let check cond msg = if cond then Ok () else Error msg in
  let ( let* ) = Result.bind in
  let* () = check (is_pow2 t.n_clusters) "n_clusters must be a power of two" in
  let* () = check (is_pow2 t.block_size) "block_size must be a power of two" in
  let* () =
    check (is_pow2 t.interleaving_factor)
      "interleaving_factor must be a power of two"
  in
  let* () =
    check
      (t.cache_size mod (t.n_clusters * t.block_size) = 0)
      "cache_size must be divisible by n_clusters * block_size"
  in
  let* () =
    check
      (t.block_size mod (t.n_clusters * t.interleaving_factor) = 0)
      "block must hold at least one interleaving unit per cluster"
  in
  (* The multiVLIW splits each cluster's module into sets, the other
     caches the whole cache: whole sets per module give both. *)
  let module_blocks = t.cache_size / t.n_clusters / t.block_size in
  let* () =
    check
      (t.associativity > 0
      && module_blocks >= t.associativity
      && module_blocks mod t.associativity = 0)
      "associativity must divide the block count of one cluster's module"
  in
  let* () =
    check
      (t.lat_local_hit <= t.lat_remote_hit
      && t.lat_remote_hit <= t.lat_local_miss
      && t.lat_local_miss <= t.lat_remote_miss)
      "memory latencies must be ordered LH <= RH <= LM <= RM"
  in
  check
    (t.ab_associativity > 0
    && t.ab_entries mod t.ab_associativity = 0
    && t.ab_entries >= t.ab_associativity)
    "ab_entries must be a positive multiple of ab_associativity"

(* The record is all immediate fields, so Marshal is a canonical byte
   representation: two configs digest equal iff every field is equal. *)
let fingerprint t = Digest.to_hex (Digest.string (Marshal.to_string t []))

(* Exactly the fields [Layout.create] and [Profiling.profile_loop] read:
   clusters and interleaving (through [max_unroll] and
   [decoder]) and the cache geometry of the presence model. *)
let profile_fingerprint t =
  Printf.sprintf "c%d·i%d·s%d·b%d·a%d" t.n_clusters t.interleaving_factor
    t.cache_size t.block_size t.associativity

(* Only the dimensions the scheduler can see: cluster count,
   interleaving factor, bus count and occupancy identify a plan group
   of the design-space sweep (cache geometry and AB shape are
   simulation-side).  Two configs with equal short names therefore
   compile every loop identically at the sweep's base geometry. *)
let short_name t =
  Printf.sprintf "c%d·i%d·b%d·o%d" t.n_clusters t.interleaving_factor
    t.n_reg_buses t.bus_occupancy

let pp ppf t =
  Format.fprintf ppf
    "@[<v>Number of clusters        %d@,\
     Functional units          %d FP / %d Integer / %d Memory per cluster@,\
     Cache                     %dKB total, %dB blocks, %d-way, %d/%d cycle \
     latency@,\
     Register buses            %d (transfer holds a bus %d cycles)@,\
     Memory buses              %d (transfer holds a bus %d cycles)@,\
     Next memory level         %d cycle total latency, always hit@,\
     Interleaving factor       %d bytes@,\
     Attraction buffers        %d-entry, %d-way per cluster@]"
    t.n_clusters t.fp_fus_per_cluster t.int_fus_per_cluster
    t.mem_fus_per_cluster (t.cache_size / 1024) t.block_size t.associativity
    t.lat_local_hit t.lat_remote_hit t.n_reg_buses t.bus_occupancy
    t.n_mem_buses t.bus_occupancy t.lat_next_level t.interleaving_factor
    t.ab_entries t.ab_associativity
