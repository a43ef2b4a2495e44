type traffic = {
  mutable remote_words : int;
  mutable block_fills : int;
  mutable attractions : int;
}

type t = {
  cfg : Config.t;
  cluster_shift : int;
  tags : Set_assoc.t;  (** replicated tags: presence of whole blocks *)
  ab : Attraction_buffer.t option;
  stats : traffic;
  pending : Int_table.t;
      (** (block lsl cluster_shift) lor home -> ready cycle of the
          in-flight request for that subblock *)
}

let create ?(with_ab = false) cfg =
  let { Config.cluster_shift; _ } = Config.decoder cfg in
  let n_blocks = cfg.Config.cache_size / cfg.Config.block_size in
  {
    cfg;
    cluster_shift;
    tags =
      Set_assoc.create
        ~sets:(n_blocks / cfg.Config.associativity)
        ~ways:cfg.Config.associativity;
    ab = (if with_ab then Some (Attraction_buffer.create cfg) else None);
    stats = { remote_words = 0; block_fills = 0; attractions = 0 };
    pending = Int_table.create 64;
  }

(* Writes the classification and ready cycle into [out], so the
   simulation loop allocates no result.  [attract] is a mandatory label:
   an optional argument would box a [Some b] on every call. *)
let access t (out : Access.scratch) ~attract ~now ~cluster ~block ~home
    ~store =
  let cfg = t.cfg in
  let local = home = cluster in
  let ab_hit =
    (not local)
    &&
    match t.ab with
    | Some ab -> Attraction_buffer.holds ab ~cluster ~block ~home
    | None -> false
  in
  if ab_hit then begin
    (* Satisfied from the local attraction buffer at local-hit latency.
       A store also updates the home module; chains guarantee no other
       cluster reads the stale home copy meanwhile, so no extra cost. *)
    out.Access.s_kind <- Access.Local_hit;
    out.Access.s_ready_at <- now + cfg.Config.lat_local_hit
  end
  else
    let sub = (block lsl t.cluster_shift) lor home in
    let ready = Int_table.find_after t.pending sub ~now in
    if ready >= 0 then begin
      out.Access.s_kind <- Access.Combined;
      out.Access.s_ready_at <- ready
    end
    else if Set_assoc.use t.tags block >= 0 then
      if local then begin
        out.Access.s_kind <- Access.Local_hit;
        out.Access.s_ready_at <- now + cfg.Config.lat_local_hit
      end
      else begin
        let ready = now + cfg.Config.lat_remote_hit in
        Int_table.set t.pending sub ready;
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
      (* Miss: the whole block is fetched; every subblock is in
         flight until the fill completes. *)
      ignore (Set_assoc.fill t.tags block);
      t.stats.block_fills <- t.stats.block_fills + 1;
      if not local then t.stats.remote_words <- t.stats.remote_words + 1;
      let lat =
        if local then cfg.Config.lat_local_miss
        else cfg.Config.lat_remote_miss
      in
      let ready = now + lat in
      let first = block lsl t.cluster_shift in
      for m = 0 to cfg.Config.n_clusters - 1 do
        Int_table.set t.pending (first lor m) ready
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
