(* Unit tests for the vliw_arch substrate: configuration, set-associative
   arrays, the word-interleaved cache with attraction buffers, the
   unified cache and the MSI-coherent multiVLIW cache. *)

open Vliw_arch

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool
let cfg = Config.default

let kind =
  Alcotest.testable Access.pp_kind (fun a b -> a = b)

(* ------------------------------------------------------------- config *)

let test_config_default () =
  (match Config.validate cfg with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  check ci "module size" 2048 (Config.module_size cfg);
  check ci "subblock size" 8 (Config.subblock_size cfg);
  check ci "max unroll" 16 (Config.max_unroll cfg)

let test_config_validation () =
  let bad = { cfg with Config.n_clusters = 3 } in
  check cb "non-pow2 clusters rejected" true
    (Result.is_error (Config.validate bad));
  let bad = { cfg with Config.lat_remote_hit = 0 } in
  check cb "unordered latencies rejected" true
    (Result.is_error (Config.validate bad));
  List.iter
    (fun (what, bad) ->
      check cb (what ^ " rejected") true (Result.is_error (Config.validate bad)))
    [
      ("associativity 3", { cfg with Config.associativity = 3 });
      ("more ways than a module's blocks",
       { cfg with Config.associativity = 1024 });
      ("4KB with 256 ways",
       { cfg with Config.cache_size = 4096; associativity = 256 });
      ("partial AB set", { cfg with Config.ab_entries = 3 });
      ("AB without a set", { cfg with Config.ab_entries = 0 });
    ]

let test_addr_mapping () =
  let dec = Config.decoder cfg in
  check ci "addr 0 -> cluster 0" 0 (Config.home_of dec 0);
  check ci "addr 4 -> cluster 1" 1 (Config.home_of dec 4);
  check ci "addr 12 -> cluster 3" 3 (Config.home_of dec 12);
  check ci "addr 16 wraps to cluster 0" 0 (Config.home_of dec 16);
  check ci "block of 33" 1 (Config.block_of dec 33);
  for addr = 0 to 4 * cfg.Config.cache_size do
    check ci "shift decode: home" (Cache_spec.cluster_of_addr cfg addr)
      (Config.home_of dec addr);
    check ci "shift decode: block" (Cache_spec.block_of_addr cfg addr)
      (Config.block_of dec addr)
  done

(* Shift decode would silently mis-map a geometry that is not a power
   of two, so the decoder — and every cache model and machine built
   through it — refuses one. *)
let test_decoder_rejects bad () =
  let raises what f =
    match f () with
    | _ -> Alcotest.failf "%s built on a non-power-of-two geometry" what
    | exception Invalid_argument _ -> ()
  in
  raises "decoder" (fun () -> ignore (Config.decoder bad));
  raises "interleaved cache" (fun () -> ignore (Interleaved_cache.create bad));
  raises "attraction buffer" (fun () -> ignore (Attraction_buffer.create bad));
  raises "coherent cache" (fun () -> ignore (Coherent_cache.create bad));
  List.iter
    (fun arch ->
      raises (Vliw_sim.Machine.arch_to_string arch) (fun () ->
          ignore (Vliw_sim.Machine.create bad arch)))
    Vliw_sim.Machine.
      [
        Word_interleaved { attraction_buffers = false };
        Word_interleaved { attraction_buffers = true };
        Unified { slow = true };
        Multivliw;
      ]

let test_access_latency () =
  check ci "local hit" 1 (Access.latency cfg Access.Local_hit);
  check ci "remote miss" 15 (Access.latency cfg Access.Remote_miss);
  Alcotest.check_raises "combined has no latency"
    (Invalid_argument "Access.latency: Combined has no fixed latency")
    (fun () -> ignore (Access.latency cfg Access.Combined))

(* ---------------------------------------------------------- set-assoc *)

let test_set_assoc_basic () =
  let t = Set_assoc.create ~sets:2 ~ways:2 in
  check cb "miss on empty" false (Set_assoc.use t 0 >= 0);
  check ci "no eviction when filling" (-1) (Set_assoc.fill t 0);
  check cb "hit after insert" true (Set_assoc.use t 0 >= 0);
  check ci "occupancy" 1 (Set_assoc.occupancy t)

let test_set_assoc_lru () =
  let t = Set_assoc.create ~sets:1 ~ways:2 in
  ignore (Set_assoc.fill t 10);
  ignore (Set_assoc.fill t 20);
  (* Touch 10 so 20 becomes LRU. *)
  ignore (Set_assoc.use t 10);
  check ci "20 evicted" 20 (Set_assoc.fill t 30);
  check cb "10 survived" true (Set_assoc.find t 10 >= 0)

let test_set_assoc_contains_no_touch () =
  let t = Set_assoc.create ~sets:1 ~ways:2 in
  ignore (Set_assoc.fill t 10);
  ignore (Set_assoc.fill t 20);
  (* find must not refresh 10's LRU position. *)
  ignore (Set_assoc.find t 10);
  check ci "10 still LRU" 10 (Set_assoc.fill t 30)

let test_set_assoc_reinsert () =
  let t = Set_assoc.create ~sets:1 ~ways:2 in
  ignore (Set_assoc.fill t 10);
  ignore (Set_assoc.fill t 20);
  check ci "reinsert evicts nothing" (-1)
    (Set_assoc.fill t 10);
  check ci "20 now LRU... refreshed 10 stays" 20
    (Set_assoc.fill t 30)

let test_set_assoc_invalidate_flush () =
  let t = Set_assoc.create ~sets:2 ~ways:2 in
  ignore (Set_assoc.fill t 0);
  ignore (Set_assoc.fill t 1);
  Set_assoc.invalidate t 0;
  check cb "invalidated" false (Set_assoc.find t 0 >= 0);
  Set_assoc.flush t;
  check ci "flush empties" 0 (Set_assoc.occupancy t)

let test_set_assoc_no_alias () =
  (* Two keys mapping to the same set must not be confused. *)
  let t = Set_assoc.create ~sets:2 ~ways:2 in
  ignore (Set_assoc.fill t 2);
  check cb "4 not present despite same set" false (Set_assoc.find t 4 >= 0)

(* --------------------------------------------------- attraction buffer *)

let test_ab_basic () =
  let ab = Attraction_buffer.create cfg in
  check cb "empty" false (Attraction_buffer.holds ab ~cluster:0 ~block:1 ~home:2);
  Attraction_buffer.attract ab ~cluster:0 ~block:1 ~home:2;
  check cb "held after attract" true
    (Attraction_buffer.holds ab ~cluster:0 ~block:1 ~home:2);
  check cb "per-cluster isolation" false
    (Attraction_buffer.holds ab ~cluster:1 ~block:1 ~home:2);
  check cb "per-home isolation" false
    (Attraction_buffer.holds ab ~cluster:0 ~block:1 ~home:3);
  Attraction_buffer.flush ab;
  check ci "flushed" 0 (Attraction_buffer.occupancy ab 0)

let test_ab_capacity () =
  let ab = Attraction_buffer.create cfg in
  (* Attract twice the capacity in subblocks of consecutive blocks (the
     pattern strided loops produce): occupancy is bounded by capacity
     and, with subblock-address indexing, reaches it. *)
  for b = 0 to 7 do
    for home = 0 to 3 do
      Attraction_buffer.attract ab ~cluster:0 ~block:b ~home
    done
  done;
  check ci "bounded by capacity" cfg.Config.ab_entries
    (Attraction_buffer.occupancy ab 0)

(* --------------------------------------------------- interleaved cache *)

let dec = Config.decoder cfg

let access c ?(attract = true) ?(store = false) ~now ~cluster addr =
  let r = Access.scratch () in
  Interleaved_cache.access c r ~attract ~now ~cluster
    ~block:(Config.block_of dec addr) ~home:(Config.home_of dec addr) ~store;
  r

let test_interleaved_classification () =
  let c = Interleaved_cache.create cfg in
  (* Address 0 is homed at cluster 0.  First access: local miss. *)
  let r = access c ~now:0 ~cluster:0 0 in
  check kind "cold local miss" Access.Local_miss r.Access.s_kind;
  check ci "miss latency" cfg.Config.lat_local_miss r.Access.s_ready_at;
  (* Long after the fill: local hit. *)
  let r = access c ~now:100 ~cluster:0 0 in
  check kind "local hit" Access.Local_hit r.Access.s_kind;
  (* Same word from cluster 1: remote hit. *)
  let r = access c ~now:200 ~cluster:1 0 in
  check kind "remote hit" Access.Remote_hit r.Access.s_kind;
  check ci "remote hit latency" (200 + cfg.Config.lat_remote_hit)
    r.Access.s_ready_at;
  (* Cold block from the wrong cluster: remote miss. *)
  let r = access c ~now:300 ~cluster:1 4096 in
  check kind "remote miss" Access.Remote_miss r.Access.s_kind

let test_interleaved_combined () =
  let c = Interleaved_cache.create cfg in
  ignore (access c ~now:0 ~cluster:0 0);
  (* Another access to the same block while the fill is pending. *)
  let r = access c ~now:1 ~cluster:0 4 in
  check kind "combined while pending" Access.Combined r.Access.s_kind;
  check ci "combined completes with the fill" cfg.Config.lat_local_miss
    r.Access.s_ready_at

let test_interleaved_ab_attract () =
  let c = Interleaved_cache.create ~with_ab:true cfg in
  ignore (access c ~now:0 ~cluster:0 0);
  (* Remote hit from cluster 1 attracts the subblock... *)
  let r = access c ~now:100 ~cluster:1 0 in
  check kind "remote hit" Access.Remote_hit r.Access.s_kind;
  (* ...so the next access from cluster 1 is a local hit. *)
  let r = access c ~now:200 ~cluster:1 0 in
  check kind "AB turns it local" Access.Local_hit r.Access.s_kind;
  check ci "AB occupancy" 1 (Interleaved_cache.ab_occupancy c 1);
  (* Flush between loops drops it. *)
  Interleaved_cache.end_of_loop c;
  let r = access c ~now:300 ~cluster:1 0 in
  check kind "flushed: remote again" Access.Remote_hit r.Access.s_kind

let test_interleaved_ab_suppressed () =
  let c = Interleaved_cache.create ~with_ab:true cfg in
  ignore (access c ~now:0 ~cluster:0 0);
  ignore (access c ~attract:false ~now:100 ~cluster:1 0);
  let r = access c ~attract:false ~now:200 ~cluster:1 0 in
  check kind "no attraction without the hint" Access.Remote_hit r.Access.s_kind

let test_interleaved_store_no_attract () =
  let c = Interleaved_cache.create ~with_ab:true cfg in
  ignore (access c ~now:0 ~cluster:0 0);
  ignore (access c ~store:true ~now:100 ~cluster:1 0);
  let r = access c ~now:200 ~cluster:1 0 in
  check kind "stores do not attract" Access.Remote_hit r.Access.s_kind

let test_interleaved_whole_block_pending () =
  let c = Interleaved_cache.create cfg in
  ignore (access c ~now:0 ~cluster:0 0);
  (* A different subblock of the same block is also in flight. *)
  let r = access c ~now:1 ~cluster:1 4 in
  check kind "other subblock combined" Access.Combined r.Access.s_kind

(* ------------------------------------------------------ unified cache *)

let unified c ~now ~addr =
  let r = Access.scratch () in
  Unified_cache.access c r ~now ~block:(Config.block_of dec addr);
  r

let test_unified () =
  let c = Unified_cache.create ~slow:false cfg in
  let r = unified c ~now:0 ~addr:0 in
  check kind "cold miss" Access.Local_miss r.Access.s_kind;
  check ci "miss = hit + next level" (1 + cfg.Config.lat_next_level)
    r.Access.s_ready_at;
  let r = unified c ~now:50 ~addr:0 in
  check kind "warm hit" Access.Local_hit r.Access.s_kind;
  let slow = Unified_cache.create ~slow:true cfg in
  check ci "slow hit latency" 5 (Unified_cache.hit_latency slow);
  let r = unified c ~now:51 ~addr:4096 in
  check kind "second cold miss" Access.Local_miss r.Access.s_kind;
  let r = unified c ~now:52 ~addr:4100 in
  check kind "combined with pending fill" Access.Combined r.Access.s_kind

(* ----------------------------------------------------- coherent cache *)

let state = Alcotest.of_pp (fun ppf s ->
    Format.pp_print_string ppf
      (match s with
      | `Modified -> "M" | `Shared -> "S" | `Invalid -> "I"))

let coherent c ~now ~cluster ~addr ~store =
  let r = Access.scratch () in
  Coherent_cache.access c r ~now ~cluster ~block:(Config.block_of dec addr)
    ~store;
  r

let test_coherent_load_sharing () =
  let c = Coherent_cache.create cfg in
  let r = coherent c ~now:0 ~cluster:0 ~addr:0 ~store:false in
  check kind "cold fill from memory" Access.Local_miss r.Access.s_kind;
  check state "filled shared" `Shared (Coherent_cache.state c ~cluster:0 ~block:0);
  (* Cluster 1 loads the same block: cache-to-cache. *)
  let r = coherent c ~now:100 ~cluster:1 ~addr:0 ~store:false in
  check kind "cache-to-cache transfer" Access.Remote_hit r.Access.s_kind;
  check state "requester shared" `Shared (Coherent_cache.state c ~cluster:1 ~block:0);
  (* Now both hit locally. *)
  let r = coherent c ~now:200 ~cluster:0 ~addr:0 ~store:false in
  check kind "local hit for 0" Access.Local_hit r.Access.s_kind;
  let r = coherent c ~now:201 ~cluster:1 ~addr:0 ~store:false in
  check kind "local hit for 1" Access.Local_hit r.Access.s_kind

let test_coherent_store_invalidates () =
  let c = Coherent_cache.create cfg in
  ignore (coherent c ~now:0 ~cluster:0 ~addr:0 ~store:false);
  ignore (coherent c ~now:100 ~cluster:1 ~addr:0 ~store:false);
  (* Store from cluster 0 upgrades and invalidates cluster 1. *)
  let r = coherent c ~now:200 ~cluster:0 ~addr:0 ~store:true in
  check kind "upgrade in place" Access.Local_hit r.Access.s_kind;
  check state "writer modified" `Modified
    (Coherent_cache.state c ~cluster:0 ~block:0);
  check state "sharer invalidated" `Invalid
    (Coherent_cache.state c ~cluster:1 ~block:0);
  (* Cluster 1's next load is served cache-to-cache from the owner. *)
  let r = coherent c ~now:300 ~cluster:1 ~addr:0 ~store:false in
  check kind "dirty transfer" Access.Remote_hit r.Access.s_kind;
  check state "owner demoted to shared" `Shared
    (Coherent_cache.state c ~cluster:0 ~block:0)

let test_coherent_store_miss () =
  let c = Coherent_cache.create cfg in
  let r = coherent c ~now:0 ~cluster:2 ~addr:64 ~store:true in
  check kind "write-allocate from memory" Access.Local_miss r.Access.s_kind;
  check state "modified" `Modified (Coherent_cache.state c ~cluster:2 ~block:2)

let test_coherent_capacity () =
  let c = Coherent_cache.create cfg in
  (* One cluster's cache holds 64 blocks; stream 128 through it. *)
  for b = 0 to 127 do
    ignore
      (coherent c ~now:(b * 20) ~cluster:0
         ~addr:(b * cfg.Config.block_size) ~store:false)
  done;
  check state "early block evicted" `Invalid
    (Coherent_cache.state c ~cluster:0 ~block:0)

let test_interleaved_traffic () =
  let c = Interleaved_cache.create ~with_ab:true cfg in
  ignore (access c ~now:0 ~cluster:0 0);        (* local fill *)
  ignore (access c ~now:100 ~cluster:1 0);      (* remote hit + attraction *)
  ignore (access c ~now:200 ~cluster:1 4096);   (* remote miss *)
  let tr = Interleaved_cache.traffic c in
  check ci "remote words" 2 tr.Interleaved_cache.remote_words;
  check ci "block fills" 2 tr.Interleaved_cache.block_fills;
  check ci "attractions" 1 tr.Interleaved_cache.attractions

let test_coherent_traffic () =
  let c = Coherent_cache.create cfg in
  ignore (coherent c ~now:0 ~cluster:0 ~addr:0 ~store:false);
  ignore (coherent c ~now:100 ~cluster:1 ~addr:0 ~store:false);
  ignore (coherent c ~now:200 ~cluster:0 ~addr:0 ~store:true);
  let tr = Coherent_cache.traffic c in
  check ci "one invalidation" 1 tr.Coherent_cache.invalidations;
  check ci "one cache-to-cache transfer" 1 tr.Coherent_cache.cache_to_cache;
  check ci "one memory fill" 1 tr.Coherent_cache.memory_fills;
  check cb "snoops counted" true (tr.Coherent_cache.snoops >= 2)

let suite =
  [
    ("config: defaults valid", `Quick, test_config_default);
    ("config: validation", `Quick, test_config_validation);
    ("config: address mapping", `Quick, test_addr_mapping);
    ("config: 3 clusters do not decode", `Quick,
     test_decoder_rejects { cfg with Config.n_clusters = 3 });
    ("config: 48-byte blocks do not decode", `Quick,
     test_decoder_rejects { cfg with Config.block_size = 48 });
    ("config: 3-byte interleaving does not decode", `Quick,
     test_decoder_rejects { cfg with Config.interleaving_factor = 3 });
    ("access: latencies", `Quick, test_access_latency);
    ("set-assoc: basics", `Quick, test_set_assoc_basic);
    ("set-assoc: LRU order", `Quick, test_set_assoc_lru);
    ("set-assoc: contains does not touch", `Quick, test_set_assoc_contains_no_touch);
    ("set-assoc: reinsert refreshes", `Quick, test_set_assoc_reinsert);
    ("set-assoc: invalidate and flush", `Quick, test_set_assoc_invalidate_flush);
    ("set-assoc: full keys, no aliasing", `Quick, test_set_assoc_no_alias);
    ("attraction buffer: basics", `Quick, test_ab_basic);
    ("attraction buffer: capacity", `Quick, test_ab_capacity);
    ("interleaved: classification", `Quick, test_interleaved_classification);
    ("interleaved: combined accesses", `Quick, test_interleaved_combined);
    ("interleaved: attraction", `Quick, test_interleaved_ab_attract);
    ("interleaved: hint suppression", `Quick, test_interleaved_ab_suppressed);
    ("interleaved: stores do not attract", `Quick, test_interleaved_store_no_attract);
    ("interleaved: block-wide pending", `Quick, test_interleaved_whole_block_pending);
    ("unified: hit/miss/combined", `Quick, test_unified);
    ("coherent: load sharing", `Quick, test_coherent_load_sharing);
    ("coherent: store invalidation", `Quick, test_coherent_store_invalidates);
    ("coherent: write allocate", `Quick, test_coherent_store_miss);
    ("coherent: capacity eviction", `Quick, test_coherent_capacity);
    ("interleaved: traffic counters", `Quick, test_interleaved_traffic);
    ("coherent: traffic counters", `Quick, test_coherent_traffic);
  ]
