type traffic = {
  mutable invalidations : int;
  mutable cache_to_cache : int;
  mutable memory_fills : int;
  mutable snoops : int;
}

(* Each line's MSI state sits beside its key: [dirty.(c)] is indexed by
   the slots of [caches.(c)], true for Modified and false for Shared; a
   line absent from the tags is Invalid.  So a snoop allocates nothing. *)
type t = {
  cfg : Config.t;
  cluster_shift : int;
  caches : Set_assoc.t array;  (** per-cluster residency + LRU *)
  dirty : bool array array;
  pending : Int_table.t;  (** (block lsl cluster_shift) lor cluster -> fill-ready cycle *)
  stats : traffic;
}

let create (cfg : Config.t) =
  let { Config.cluster_shift; _ } = Config.decoder cfg in
  let blocks_per_cluster =
    cfg.Config.cache_size / cfg.Config.n_clusters / cfg.Config.block_size
  in
  {
    cfg;
    cluster_shift;
    caches =
      Array.init cfg.Config.n_clusters (fun _ ->
          Set_assoc.create
            ~sets:(blocks_per_cluster / cfg.Config.associativity)
            ~ways:cfg.Config.associativity);
    dirty =
      Array.init cfg.Config.n_clusters (fun _ ->
          Array.make blocks_per_cluster false);
    pending = Int_table.create 64;
    stats = { invalidations = 0; cache_to_cache = 0; memory_fills = 0; snoops = 0 };
  }

let rec has_holder t ~block ~except c =
  c < Array.length t.caches
  && ((c <> except && Set_assoc.find t.caches.(c) block >= 0)
     || has_holder t ~block ~except (c + 1))

(* A peer's copy is demoted to Shared by a load and invalidated by a
   store; a store's snoop counts one bus transaction if it killed any
   copy. *)
let snoop_others t ~block ~except ~store =
  let killed = ref 0 in
  for c = 0 to Array.length t.caches - 1 do
    let s = Set_assoc.find t.caches.(c) block in
    if c <> except && s >= 0 then
      if store then begin
        Set_assoc.invalidate t.caches.(c) block;
        incr killed
      end
      else t.dirty.(c).(s) <- false
  done;
  t.stats.invalidations <- t.stats.invalidations + !killed;
  if !killed > 0 then t.stats.snoops <- t.stats.snoops + 1

let access t (out : Access.scratch) ~now ~cluster ~block ~store =
  let cfg = t.cfg in
  let k = (block lsl t.cluster_shift) lor cluster in
  let pending_ready = Int_table.find_after t.pending k ~now in
  if pending_ready >= 0 then begin
    out.Access.s_kind <- Access.Combined;
    out.Access.s_ready_at <- pending_ready
  end
  else
    let s = Set_assoc.use t.caches.(cluster) block in
    if s >= 0 then begin
      (* A store to a Shared line upgrades it and kills the peers. *)
      if store && not t.dirty.(cluster).(s) then begin
        snoop_others t ~block ~except:cluster ~store;
        t.dirty.(cluster).(s) <- true
      end;
      out.Access.s_kind <- Access.Local_hit;
      out.Access.s_ready_at <- now + cfg.Config.lat_local_hit
    end
    else begin
      let peer = has_holder t ~block ~except:cluster 0 in
      if peer then begin
        (* Cache-to-cache transfer over the memory buses. *)
        snoop_others t ~block ~except:cluster ~store;
        t.stats.cache_to_cache <- t.stats.cache_to_cache + 1
      end
      else t.stats.memory_fills <- t.stats.memory_fills + 1;
      ignore (Set_assoc.fill t.caches.(cluster) block);
      t.dirty.(cluster).(Set_assoc.find t.caches.(cluster) block) <- store;
      t.stats.snoops <- t.stats.snoops + 1;
      let ready =
        now + if peer then cfg.Config.lat_remote_hit else cfg.Config.lat_local_miss
      in
      Int_table.set t.pending k ready;
      out.Access.s_kind <- (if peer then Access.Remote_hit else Access.Local_miss);
      out.Access.s_ready_at <- ready
    end

let end_of_loop t = Int_table.reset t.pending

let state t ~cluster ~block =
  let s = Set_assoc.find t.caches.(cluster) block in
  if s < 0 then `Invalid else if t.dirty.(cluster).(s) then `Modified else `Shared

let traffic t = t.stats
