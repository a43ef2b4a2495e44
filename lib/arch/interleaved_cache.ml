type traffic = {
  mutable remote_words : int;
  mutable block_fills : int;
  mutable attractions : int;
}

(* Pending requests live beside the tags.  [ready.(s * n_clusters + h)]
   is the ready cycle of the last request for the subblock homed at [h]
   of the block in tag slot [s], stored as [base + cycle]: an entry below
   [base] was set before the last [end_of_loop] and means "nothing in
   flight", so forgetting every request is one assignment.  A hit or a
   combined access costs the tag scan plus one array read.

   Issue times are not monotonic — the executor walks iteration-major,
   so a late stage of iteration i issues after an early stage of
   iteration i + 1 — and a request set this loop can still be in flight
   for an access that comes later in issue order but earlier in time.
   So a block evicted by a fill hands every entry set this loop to the
   spill table, keyed by subblock, whatever its cycle.  Only a tag miss
   consults the spill table.  A block's entries are therefore in its
   slot while it is resident and in the spill table otherwise.  A fill
   sets all of its block's entries, and a later eviction spills all of
   them again, so a stale spilled entry of a resident block is never
   read and the fill need not clear it. *)
type t = {
  cfg : Config.t;
  n_clusters : int;
  cluster_shift : int;
  tags : Set_assoc.t;  (** replicated tags: presence of whole blocks *)
  ab : Attraction_buffer.t option;
  stats : traffic;
  ready : int array;
  mutable base : int;
  mutable horizon : int;  (** the largest value stored in [ready] *)
  spill : Int_table.t;  (** subblock -> ready cycle, evicted blocks *)
  mutable spill_until : int;  (** the largest cycle spilled this loop *)
  mutable kind : int;  (** the last access's kind, as for {!Access.of_index} *)
}

let create ?(with_ab = false) cfg =
  let { Config.cluster_shift; _ } = Config.decoder cfg in
  let n_blocks = cfg.Config.cache_size / cfg.Config.block_size in
  let n_clusters = cfg.Config.n_clusters in
  {
    cfg;
    n_clusters;
    cluster_shift;
    tags =
      Set_assoc.create
        ~sets:(n_blocks / cfg.Config.associativity)
        ~ways:cfg.Config.associativity;
    ab = (if with_ab then Some (Attraction_buffer.create cfg) else None);
    stats = { remote_words = 0; block_fills = 0; attractions = 0 };
    ready = Array.make (n_blocks * n_clusters) (-1);
    base = 0;
    horizon = -1;
    spill = Int_table.create 16;
    spill_until = -1;
    kind = 0;
  }

(* Access kinds in {!Access.of_index} order, as plain ints for the
   counters. *)
let local_hit = 0
let remote_hit = 1
let local_miss = 2
let remote_miss = 3
let combined = 4

(* [Set_assoc]'s find, touch and victim choice, restated over its exposed
   arrays so the access path makes no cross-module call (see
   set_assoc.mli).  Keys here are block and subblock numbers of
   non-negative addresses. *)
let[@inline] first (s : Set_assoc.t) key =
  (if s.mask >= 0 then key land s.mask else key mod s.sets) * s.ways

let rec scan (keys : int array) key i stop =
  if i = stop then -1 else if keys.(i) = key then i else scan keys key (i + 1) stop

let rec victim (keys : int array) (stamps : int array) v i stop =
  if i = stop then v
  else if keys.(i) < 0 then i
  else victim keys stamps (if stamps.(i) < stamps.(v) then i else v) (i + 1) stop

let[@inline] find (s : Set_assoc.t) key =
  let b = first s key in
  scan s.keys key b (b + s.ways)

let[@inline] touch (s : Set_assoc.t) i =
  s.clock <- s.clock + 1;
  s.stamps.(i) <- s.clock

(* The slot [key] goes to on a miss; the caller reads the evicted key
   before storing. *)
let[@inline] victim_slot (s : Set_assoc.t) key =
  let b = first s key in
  if s.keys.(b) < 0 then b else victim s.keys s.stamps b (b + 1) (b + s.ways)

let[@inline] set_ready t i cycle =
  let v = t.base + cycle in
  t.ready.(i) <- v;
  if v > t.horizon then t.horizon <- v

(* Hand the entries an evicted block's slot got this loop to the spill
   table. *)
let spill t slot evicted =
  let row = slot * t.n_clusters in
  for h = 0 to t.n_clusters - 1 do
    let cycle = t.ready.(row + h) - t.base in
    if cycle >= 0 then begin
      Int_table.set t.spill ((evicted lsl t.cluster_shift) lor h) cycle;
      if cycle > t.spill_until then t.spill_until <- cycle
    end
  done

(* Miss: the whole block is fetched into the LRU way of its set, and
   every subblock is in flight until the fill completes. *)
let miss t ~now ~block ~local =
  let tags = t.tags in
  let slot = victim_slot tags block in
  let evicted = tags.keys.(slot) in
  if evicted >= 0 then spill t slot evicted;
  tags.keys.(slot) <- block;
  touch tags slot;
  t.stats.block_fills <- t.stats.block_fills + 1;
  if not local then t.stats.remote_words <- t.stats.remote_words + 1;
  let cfg = t.cfg in
  let ready =
    now + if local then cfg.Config.lat_local_miss else cfg.Config.lat_remote_miss
  in
  let row = slot * t.n_clusters in
  for h = 0 to t.n_clusters - 1 do
    set_ready t (row + h) ready
  done;
  t.kind <- (if local then local_miss else remote_miss);
  ready

(* One word access: returns the ready cycle and leaves the kind in
   [t.kind], so the batch loop allocates no result. *)
let access_word t ~attract ~now ~cluster ~block ~home ~store =
  let cfg = t.cfg in
  let local = home = cluster in
  let sub = (block lsl t.cluster_shift) lor home in
  let ab_hit =
    (not local)
    &&
    match t.ab with
    | Some ab ->
        let buf = ab.Attraction_buffer.buffers.(cluster) in
        let i = find buf sub in
        if i >= 0 then touch buf i;
        i >= 0
    | None -> false
  in
  if ab_hit then begin
    (* Satisfied from the local attraction buffer at local-hit latency.
       A store also updates the home module; chains guarantee no other
       cluster reads the stale home copy meanwhile, so no extra cost. *)
    t.kind <- local_hit;
    now + cfg.Config.lat_local_hit
  end
  else
    let slot = find t.tags block in
    if slot >= 0 then begin
      let i = (slot * t.n_clusters) + home in
      let pending = t.ready.(i) - t.base in
      if pending > now then begin
        t.kind <- combined;
        pending
      end
      else begin
        touch t.tags slot;
        if local then begin
          t.kind <- local_hit;
          now + cfg.Config.lat_local_hit
        end
        else begin
          let ready = now + cfg.Config.lat_remote_hit in
          set_ready t i ready;
          t.stats.remote_words <- t.stats.remote_words + 1;
          (match t.ab with
          | Some ab when attract && not store ->
              (* [sub] is absent: the buffer probe above missed. *)
              let buf = ab.Attraction_buffer.buffers.(cluster) in
              let v = victim_slot buf sub in
              buf.keys.(v) <- sub;
              touch buf v;
              t.stats.attractions <- t.stats.attractions + 1
          | Some _ | None -> ());
          t.kind <- remote_hit;
          ready
        end
      end
    end
    else
      let pending =
        if now < t.spill_until then Int_table.find_after t.spill sub ~now
        else -1
      in
      if pending >= 0 then begin
        t.kind <- combined;
        pending
      end
      else miss t ~now ~block ~local

let access t (out : Access.scratch) ~attract ~now ~cluster ~block ~home
    ~store =
  let ready = access_word t ~attract ~now ~cluster ~block ~home ~store in
  out.Access.s_kind <- Access.of_index t.kind;
  out.Access.s_ready_at <- ready

type plan = {
  starts : int array;
  clusters : int array;
  stores : bool array;
  parts : int array;
  promised : int array;
  factor_masks : int array;
}

let tally_stall = Access.n_kinds
let tally_factors = 2 * Access.n_kinds

(* Count a stalling remote hit under every factor of its mask. *)
let rec count_factors (tally : int array) mask i =
  if mask <> 0 then begin
    if mask land 1 <> 0 then tally.(i) <- tally.(i) + 1;
    count_factors tally (mask lsr 1) (i + 1)
  end

let run_batch caches ~attracts (p : plan) ~(decode : Config.decode) ~i_factor
    ~ii ~trace ~from ~until ~stalls ~tallies =
  let n = Array.length p.starts in
  let m = Array.length caches in
  let { Config.block_shift; unit_shift; cluster_mask; _ } = decode in
  let max_parts = Array.fold_left max 1 p.parts in
  let blocks = Array.make max_parts 0 in
  let homes = Array.make max_parts 0 in
  for iter = from to until - 1 do
    let row = iter * n in
    for k = 0 to n - 1 do
      let addr = trace.(row + k) in
      let parts = p.parts.(k) in
      for q = 0 to parts - 1 do
        let a = addr + (q * i_factor) in
        blocks.(q) <- a lsr block_shift;
        homes.(q) <- (a lsr unit_shift) land cluster_mask
      done;
      let slot = (iter * ii) + p.starts.(k) in
      let cluster = p.clusters.(k) and store = p.stores.(k) in
      for j = 0 to m - 1 do
        let t = caches.(j) in
        let now = slot + stalls.(j) in
        let attract = attracts.(j).(k) in
        (* A wide element completes when its slowest part does and is
           classified by that part. *)
        let ready =
          ref
            (access_word t ~attract ~now ~cluster ~block:blocks.(0)
               ~home:homes.(0) ~store)
        in
        let kind = ref t.kind in
        for q = 1 to parts - 1 do
          let r =
            access_word t ~attract ~now ~cluster ~block:blocks.(q)
              ~home:homes.(q) ~store
          in
          if r >= !ready then begin
            ready := r;
            kind := t.kind
          end
        done;
        let kind = !kind in
        let tally = tallies.(j) in
        tally.(kind) <- tally.(kind) + 1;
        if not store then begin
          let s = !ready - (now + p.promised.(k)) in
          if s > 0 then begin
            stalls.(j) <- stalls.(j) + s;
            tally.(tally_stall + kind) <- tally.(tally_stall + kind) + s;
            if kind = remote_hit then
              count_factors tally p.factor_masks.(k) tally_factors
          end
        end
      done
    done
  done

let end_of_loop t =
  t.base <- t.horizon + 1;
  Int_table.reset t.spill;
  t.spill_until <- -1;
  match t.ab with Some ab -> Attraction_buffer.flush ab | None -> ()

let ab_occupancy t c =
  match t.ab with Some ab -> Attraction_buffer.occupancy ab c | None -> 0

let traffic t = t.stats
