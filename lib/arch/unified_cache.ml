type t = {
  cfg : Config.t;
  tags : Set_assoc.t;
  hit_lat : int;
  pending : Int_table.t;  (** block -> fill-ready cycle *)
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
      (if slow then cfg.Config.lat_unified_slow else cfg.Config.lat_unified_fast);
    pending = Int_table.create 64;
  }

let hit_latency t = t.hit_lat

let access t (out : Access.scratch) ~now ~block =
  let ready = Int_table.find_after t.pending block ~now in
  if ready >= 0 then begin
    out.Access.s_kind <- Access.Combined;
    out.Access.s_ready_at <- ready
  end
  else if Set_assoc.use t.tags block >= 0 then begin
    out.Access.s_kind <- Access.Local_hit;
    out.Access.s_ready_at <- now + t.hit_lat
  end
  else begin
    ignore (Set_assoc.fill t.tags block);
    let ready = now + t.hit_lat + t.cfg.Config.lat_next_level in
    Int_table.set t.pending block ready;
    out.Access.s_kind <- Access.Local_miss;
    out.Access.s_ready_at <- ready
  end

let end_of_loop t = Int_table.reset t.pending
