type t = { cluster_shift : int; buffers : Set_assoc.t array }

(* Index by the subblock's word address (block, then home in the low
   bits): subblocks of one block spread over consecutive sets, which is
   what a hardware buffer indexing low address bits does. *)
let key t ~block ~home = (block lsl t.cluster_shift) lor home

let create (cfg : Config.t) =
  let { Config.cluster_shift; _ } = Config.decoder cfg in
  let sets = cfg.Config.ab_entries / cfg.Config.ab_associativity in
  {
    cluster_shift;
    buffers =
      Array.init cfg.Config.n_clusters (fun _ ->
          Set_assoc.create ~sets ~ways:cfg.Config.ab_associativity);
  }

let holds t ~cluster ~block ~home =
  Set_assoc.use t.buffers.(cluster) (key t ~block ~home) >= 0

let attract t ~cluster ~block ~home =
  ignore (Set_assoc.fill t.buffers.(cluster) (key t ~block ~home))

let flush t = Array.iter Set_assoc.flush t.buffers
let occupancy t c = Set_assoc.occupancy t.buffers.(c)
