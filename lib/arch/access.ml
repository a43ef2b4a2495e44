type kind = Local_hit | Remote_hit | Local_miss | Remote_miss | Combined

type scratch = { mutable s_kind : kind; mutable s_ready_at : int }

let scratch () = { s_kind = Local_hit; s_ready_at = 0 }

let by_index = [| Local_hit; Remote_hit; Local_miss; Remote_miss; Combined |]
let n_kinds = Array.length by_index
let of_index i = by_index.(i)

let latency (cfg : Config.t) = function
  | Local_hit -> cfg.Config.lat_local_hit
  | Remote_hit -> cfg.Config.lat_remote_hit
  | Local_miss -> cfg.Config.lat_local_miss
  | Remote_miss -> cfg.Config.lat_remote_miss
  | Combined -> invalid_arg "Access.latency: Combined has no fixed latency"

let all_kinds = [ Local_hit; Remote_hit; Local_miss; Remote_miss; Combined ]

let kind_to_string = function
  | Local_hit -> "local hit"
  | Remote_hit -> "remote hit"
  | Local_miss -> "local miss"
  | Remote_miss -> "remote miss"
  | Combined -> "combined"

let pp_kind ppf k = Format.pp_print_string ppf (kind_to_string k)
