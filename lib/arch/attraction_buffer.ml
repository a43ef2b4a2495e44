type t = { n_clusters : int; buffers : Set_assoc.t array }

(* Index by the subblock's word address (block, then home in the low
   bits): subblocks of one block spread over consecutive sets, which is
   what a hardware buffer indexing low address bits does. *)
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
