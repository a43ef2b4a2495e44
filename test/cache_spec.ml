(* Executable specification of the cache models: the record-based
   implementations the flat, shift-decoded models in [Vliw_arch]
   replaced, kept verbatim.  Sets are arrays of mutable entry records,
   addresses are decoded by division, and the multiVLIW's MSI states
   and every model's pending requests live in hashtables.  Slow but
   obviously right — the flat models must agree with them access for
   access (see "flat caches match the record spec" in test_props.ml). *)

module Access = Vliw_arch.Access
module Config = Vliw_arch.Config

(* The pending-request map, on the stdlib table. *)
module Int_table = struct
  type t = (int, int) Hashtbl.t

  let create n : t = Hashtbl.create n
  let find t k ~default = Option.value ~default (Hashtbl.find_opt t k)
  let set = Hashtbl.replace
  let reset = Hashtbl.reset
end

module Set_assoc = struct
  (* Each way stores (key, stamp); stamp is a monotonic use counter, the
     smallest stamp in a set is the LRU victim. *)

  type entry = { mutable key : int; mutable stamp : int; mutable valid : bool }

  type t = {
    n_sets : int;
    n_ways : int;
    entries : entry array array;  (** [set].(way) *)
    mutable clock : int;
  }

  let create ~sets ~ways =
    if sets <= 0 || ways <= 0 then invalid_arg "Set_assoc.create";
    {
      n_sets = sets;
      n_ways = ways;
      entries =
        Array.init sets (fun _ ->
            Array.init ways (fun _ -> { key = 0; stamp = 0; valid = false }));
      clock = 0;
    }

  let set_of t key = key mod t.n_sets

  let find_way t key =
    let set = t.entries.(set_of t key) in
    let rec scan i =
      if i >= t.n_ways then None
      else if set.(i).valid && set.(i).key = key then Some set.(i)
      else scan (i + 1)
    in
    scan 0

  let contains t key = Option.is_some (find_way t key)

  let touch t e =
    t.clock <- t.clock + 1;
    e.stamp <- t.clock

  let lookup t key =
    match find_way t key with
    | Some e ->
        touch t e;
        true
    | None -> false

  let insert t key =
    match find_way t key with
    | Some e ->
        touch t e;
        None
    | None ->
        let set = t.entries.(set_of t key) in
        let victim = ref set.(0) in
        Array.iter
          (fun e ->
            if not e.valid then begin
              if !victim.valid then victim := e
            end
            else if !victim.valid && e.stamp < !victim.stamp then victim := e)
          set;
        let evicted = if !victim.valid then Some !victim.key else None in
        !victim.key <- key;
        !victim.valid <- true;
        touch t !victim;
        evicted

  let invalidate t key =
    match find_way t key with Some e -> e.valid <- false | None -> ()

  let flush t =
    Array.iter (fun set -> Array.iter (fun e -> e.valid <- false) set) t.entries

  let occupancy t =
    Array.fold_left
      (fun acc set ->
        Array.fold_left (fun acc e -> if e.valid then acc + 1 else acc) acc set)
      0 t.entries
end

module Attraction_buffer = struct
  type t = { n_clusters : int; buffers : Set_assoc.t array }

  let key t ~block ~home = (block * t.n_clusters) + home

  let create (cfg : Config.t) =
    let sets = cfg.Config.ab_entries / cfg.Config.ab_associativity in
    {
      n_clusters = cfg.Config.n_clusters;
      buffers =
        Array.init cfg.Config.n_clusters (fun _ ->
            Set_assoc.create ~sets ~ways:cfg.Config.ab_associativity);
    }

  let holds t ~cluster ~block ~home =
    Set_assoc.lookup t.buffers.(cluster) (key t ~block ~home)

  let attract t ~cluster ~block ~home =
    ignore (Set_assoc.insert t.buffers.(cluster) (key t ~block ~home))

  let flush t = Array.iter Set_assoc.flush t.buffers
  let occupancy t c = Set_assoc.occupancy t.buffers.(c)
end

(* The division decode the flat models replaced by shifts and masks. *)
let cluster_of_addr (cfg : Config.t) addr =
  addr / cfg.Config.interleaving_factor mod cfg.Config.n_clusters

let block_of_addr (cfg : Config.t) addr = addr / cfg.Config.block_size

module Interleaved_cache = struct
  type traffic = {
    mutable remote_words : int;
    mutable block_fills : int;
    mutable attractions : int;
  }

  type t = {
    cfg : Config.t;
    tags : Set_assoc.t;
    ab : Attraction_buffer.t option;
    stats : traffic;
    pending : Int_table.t;
  }

  let create ?(with_ab = false) cfg =
    let n_blocks = cfg.Config.cache_size / cfg.Config.block_size in
    {
      cfg;
      tags =
        Set_assoc.create
          ~sets:(n_blocks / cfg.Config.associativity)
          ~ways:cfg.Config.associativity;
      ab = (if with_ab then Some (Attraction_buffer.create cfg) else None);
      stats = { remote_words = 0; block_fills = 0; attractions = 0 };
      pending = Int_table.create 64;
    }

  let pending_key t ~block ~home = (block * t.cfg.Config.n_clusters) + home

  let pending_ready t ~now ~block ~home =
    let ready =
      Int_table.find t.pending (pending_key t ~block ~home) ~default:(-1)
    in
    if ready > now then ready else -1

  let set_pending t ~block ~home ~ready =
    Int_table.set t.pending (pending_key t ~block ~home) ready

  let access t (out : Access.scratch) ~attract ~now ~cluster ~addr ~store =
    let cfg = t.cfg in
    let home = cluster_of_addr cfg addr in
    let block = block_of_addr cfg addr in
    let local = home = cluster in
    let ab_hit =
      (not local)
      &&
      match t.ab with
      | Some ab -> Attraction_buffer.holds ab ~cluster ~block ~home
      | None -> false
    in
    if ab_hit then begin
      out.Access.s_kind <- Access.Local_hit;
      out.Access.s_ready_at <- now + cfg.Config.lat_local_hit
    end
    else
      let ready = pending_ready t ~now ~block ~home in
      if ready >= 0 then begin
        out.Access.s_kind <- Access.Combined;
        out.Access.s_ready_at <- ready
      end
      else if Set_assoc.lookup t.tags block then
        if local then begin
          out.Access.s_kind <- Access.Local_hit;
          out.Access.s_ready_at <- now + cfg.Config.lat_local_hit
        end
        else begin
          let ready = now + cfg.Config.lat_remote_hit in
          set_pending t ~block ~home ~ready;
          t.stats.remote_words <- t.stats.remote_words + 1;
          (match t.ab with
          | Some ab when attract && not store ->
              Attraction_buffer.attract ab ~cluster ~block ~home;
              t.stats.attractions <- t.stats.attractions + 1
          | Some _ | None -> ());
          out.Access.s_kind <- Access.Remote_hit;
          out.Access.s_ready_at <- ready
        end
      else begin
        ignore (Set_assoc.insert t.tags block);
        t.stats.block_fills <- t.stats.block_fills + 1;
        if not local then t.stats.remote_words <- t.stats.remote_words + 1;
        let lat =
          if local then cfg.Config.lat_local_miss
          else cfg.Config.lat_remote_miss
        in
        let ready = now + lat in
        for m = 0 to cfg.Config.n_clusters - 1 do
          set_pending t ~block ~home:m ~ready
        done;
        out.Access.s_kind <-
          (if local then Access.Local_miss else Access.Remote_miss);
        out.Access.s_ready_at <- ready
      end

  let end_of_loop t =
    Int_table.reset t.pending;
    match t.ab with Some ab -> Attraction_buffer.flush ab | None -> ()

  let ab_occupancy t c =
    match t.ab with Some ab -> Attraction_buffer.occupancy ab c | None -> 0

  let traffic t = t.stats
end

module Unified_cache = struct
  type t = {
    cfg : Config.t;
    tags : Set_assoc.t;
    hit_lat : int;
    pending : Int_table.t;
  }

  let create ~slow (cfg : Config.t) =
    let n_blocks = cfg.Config.cache_size / cfg.Config.block_size in
    {
      cfg;
      tags =
        Set_assoc.create
          ~sets:(n_blocks / cfg.Config.associativity)
          ~ways:cfg.Config.associativity;
      hit_lat =
        (if slow then cfg.Config.lat_unified_slow
         else cfg.Config.lat_unified_fast);
      pending = Int_table.create 64;
    }

  let access t (out : Access.scratch) ~now ~addr =
    let block = block_of_addr t.cfg addr in
    let ready = Int_table.find t.pending block ~default:(-1) in
    if ready > now then begin
      out.Access.s_kind <- Access.Combined;
      out.Access.s_ready_at <- ready
    end
    else if Set_assoc.lookup t.tags block then begin
      out.Access.s_kind <- Access.Local_hit;
      out.Access.s_ready_at <- now + t.hit_lat
    end
    else begin
      ignore (Set_assoc.insert t.tags block);
      let ready = now + t.hit_lat + t.cfg.Config.lat_next_level in
      Int_table.set t.pending block ready;
      out.Access.s_kind <- Access.Local_miss;
      out.Access.s_ready_at <- ready
    end

  let end_of_loop t = Int_table.reset t.pending
end

module Coherent_cache = struct
  type mstate = Modified | Shared

  type traffic = {
    mutable invalidations : int;
    mutable cache_to_cache : int;
    mutable memory_fills : int;
    mutable snoops : int;
  }

  type t = {
    cfg : Config.t;
    caches : Set_assoc.t array;
    states : (int, mstate) Hashtbl.t;
    pending : Int_table.t;
    stats : traffic;
  }

  let key t ~cluster ~block = (block * t.cfg.Config.n_clusters) + cluster

  let create (cfg : Config.t) =
    let blocks_per_cluster =
      cfg.Config.cache_size / cfg.Config.n_clusters / cfg.Config.block_size
    in
    {
      cfg;
      caches =
        Array.init cfg.Config.n_clusters (fun _ ->
            Set_assoc.create
              ~sets:(blocks_per_cluster / cfg.Config.associativity)
              ~ways:cfg.Config.associativity);
      states = Hashtbl.create 256;
      pending = Int_table.create 64;
      stats =
        { invalidations = 0; cache_to_cache = 0; memory_fills = 0; snoops = 0 };
    }

  let state_of t ~cluster ~block =
    Hashtbl.find_opt t.states (key t ~cluster ~block)

  let set_state t ~cluster ~block st =
    Hashtbl.replace t.states (key t ~cluster ~block) st

  let drop_state t ~cluster ~block =
    Hashtbl.remove t.states (key t ~cluster ~block)

  let holders t ~block ~except =
    let acc = ref [] in
    for c = t.cfg.Config.n_clusters - 1 downto 0 do
      if c <> except && Option.is_some (state_of t ~cluster:c ~block) then
        acc := c :: !acc
    done;
    !acc

  let has_holder t ~block ~except =
    let n = t.cfg.Config.n_clusters in
    let rec scan c =
      c < n
      && ((c <> except && Hashtbl.mem t.states (key t ~cluster:c ~block))
         || scan (c + 1))
    in
    scan 0

  let install t ~cluster ~block st =
    (match Set_assoc.insert t.caches.(cluster) block with
    | Some evicted -> drop_state t ~cluster ~block:evicted
    | None -> ());
    set_state t ~cluster ~block st

  let invalidate_others t ~block ~except =
    let victims = holders t ~block ~except in
    t.stats.invalidations <- t.stats.invalidations + List.length victims;
    if victims <> [] then t.stats.snoops <- t.stats.snoops + 1;
    List.iter
      (fun c ->
        Set_assoc.invalidate t.caches.(c) block;
        drop_state t ~cluster:c ~block)
      victims

  let access t (out : Access.scratch) ~now ~cluster ~addr ~store =
    let cfg = t.cfg in
    let block = block_of_addr cfg addr in
    let k = key t ~cluster ~block in
    let pending_ready = Int_table.find t.pending k ~default:(-1) in
    if pending_ready > now then begin
      out.Access.s_kind <- Access.Combined;
      out.Access.s_ready_at <- pending_ready
    end
    else
      let local_state =
        if Set_assoc.lookup t.caches.(cluster) block then
          state_of t ~cluster ~block
        else None
      in
      match local_state with
      | Some Modified ->
          out.Access.s_kind <- Access.Local_hit;
          out.Access.s_ready_at <- now + cfg.Config.lat_local_hit
      | Some Shared ->
          if store then begin
            invalidate_others t ~block ~except:cluster;
            set_state t ~cluster ~block Modified
          end;
          out.Access.s_kind <- Access.Local_hit;
          out.Access.s_ready_at <- now + cfg.Config.lat_local_hit
      | None ->
          if has_holder t ~block ~except:cluster then begin
            if store then invalidate_others t ~block ~except:cluster
            else
              List.iter
                (fun c -> set_state t ~cluster:c ~block Shared)
                (holders t ~block ~except:cluster);
            install t ~cluster ~block (if store then Modified else Shared);
            t.stats.cache_to_cache <- t.stats.cache_to_cache + 1;
            t.stats.snoops <- t.stats.snoops + 1;
            let ready = now + cfg.Config.lat_remote_hit in
            Int_table.set t.pending k ready;
            out.Access.s_kind <- Access.Remote_hit;
            out.Access.s_ready_at <- ready
          end
          else begin
            install t ~cluster ~block (if store then Modified else Shared);
            t.stats.memory_fills <- t.stats.memory_fills + 1;
            t.stats.snoops <- t.stats.snoops + 1;
            let ready = now + cfg.Config.lat_local_miss in
            Int_table.set t.pending k ready;
            out.Access.s_kind <- Access.Local_miss;
            out.Access.s_ready_at <- ready
          end

  let end_of_loop t = Int_table.reset t.pending

  let state t ~cluster ~block =
    if not (Set_assoc.contains t.caches.(cluster) block) then `Invalid
    else
      match state_of t ~cluster ~block with
      | Some Modified -> `Modified
      | Some Shared -> `Shared
      | None -> `Invalid

  let traffic t = t.stats
end

(* [Vliw_sim.Machine.traffic_summary] over the spec models. *)
let interleaved_summary c =
  let tr = Interleaved_cache.traffic c in
  [
    ("remote words", tr.Interleaved_cache.remote_words);
    ("block fills", tr.Interleaved_cache.block_fills);
    ("attractions", tr.Interleaved_cache.attractions);
  ]

let coherent_summary c =
  let tr = Coherent_cache.traffic c in
  [
    ("invalidations", tr.Coherent_cache.invalidations);
    ("cache-to-cache", tr.Coherent_cache.cache_to_cache);
    ("memory fills", tr.Coherent_cache.memory_fills);
    ("snoops", tr.Coherent_cache.snoops);
  ]
