module Config = Vliw_arch.Config
module Ddg = Vliw_ir.Ddg
module Operation = Vliw_ir.Operation
module Schedule = Vliw_sched.Schedule

let attraction_benefit (p : Profile.op_profile) ~assigned_cluster =
  let remote_fraction =
    if assigned_cluster < Array.length p.Profile.cluster_fractions then
      1.0 -. p.Profile.cluster_fractions.(assigned_cluster)
    else 1.0
  in
  float_of_int p.Profile.accesses *. p.Profile.hit_rate *. remote_fraction

let attractable (cfg : Config.t) ddg ~profile ~(schedule : Schedule.t) =
  let k = max 1 (cfg.Config.ab_entries / 2) in
  let n = Ddg.n_ops ddg in
  let scored = ref [] in
  for i = 0 to n - 1 do
    if Operation.is_load (Ddg.op ddg i) then
      match Profile.get profile i with
      | Some p ->
          let b =
            attraction_benefit p ~assigned_cluster:schedule.Schedule.cluster.(i)
          in
          if b > 0.0 then scored := (b, i) :: !scored
      | None -> ()
  done;
  let flags = Array.make n false in
  !scored
  |> List.sort (fun (b1, i1) (b2, i2) ->
         if b1 <> b2 then compare b2 b1 else compare i1 i2)
  |> List.filteri (fun rank _ -> rank < k)
  |> List.iter (fun (_, i) -> flags.(i) <- true);
  flags
