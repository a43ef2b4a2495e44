type mstate = Modified | Shared

type traffic = {
  mutable invalidations : int;
  mutable cache_to_cache : int;
  mutable memory_fills : int;
  mutable snoops : int;
}

type t = {
  cfg : Config.t;
  caches : Set_assoc.t array;  (** per-cluster residency + LRU *)
  states : (int, mstate) Hashtbl.t;  (** cluster * n_blocks_space + block *)
  pending : Int_table.t;  (** same key -> fill-ready cycle *)
  stats : traffic;
}

(* Key packing: blocks are unbounded, clusters are not, so the cluster is
   the low component. *)
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
    stats = { invalidations = 0; cache_to_cache = 0; memory_fills = 0; snoops = 0 };
  }

let state_of t ~cluster ~block = Hashtbl.find_opt t.states (key t ~cluster ~block)

let set_state t ~cluster ~block st =
  Hashtbl.replace t.states (key t ~cluster ~block) st

let drop_state t ~cluster ~block = Hashtbl.remove t.states (key t ~cluster ~block)

let holders t ~block ~except =
  let acc = ref [] in
  for c = t.cfg.Config.n_clusters - 1 downto 0 do
    if c <> except && Option.is_some (state_of t ~cluster:c ~block) then
      acc := c :: !acc
  done;
  !acc

(* Allocation-free holder scan for the hit paths: most accesses only
   need to know whether *some* other cluster holds the block. *)
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
  let block = Config.block_of_addr cfg addr in
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
          (* Cache-to-cache transfer over the memory buses. *)
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
