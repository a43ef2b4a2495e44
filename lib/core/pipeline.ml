module Config = Vliw_arch.Config
module Loop = Vliw_ir.Loop
module Engine = Vliw_sched.Engine
module Schedule = Vliw_sched.Schedule

type target =
  | Interleaved of { heuristic : [ `Ibc | `Ipbc ]; chains : bool }
  | Unified of { slow : bool }
  | Multivliw

type compiled = {
  source : Loop.t;
  target : target;
  unroll_factor : int;
  loop : Loop.t;
  profile : Profile.t;
  latencies : int array;
  chains : Chains.t;
  schedule : Schedule.t;
  estimated_cycles : int;
  considered : (int * int) list;
  bus_window_rejections : int;
}

exception Scheduling_failed of string

let check_hook : (Config.t -> compiled -> unit) ref = ref (fun _ _ -> ())

let mode_of_target (cfg : Config.t) = function
  | Interleaved _ -> Latency_assign.Four_level
  | Unified { slow } ->
      let hit =
        if slow then cfg.Config.lat_unified_slow else cfg.Config.lat_unified_fast
      in
      Latency_assign.Two_level { hit; miss = hit + cfg.Config.lat_next_level }
  | Multivliw ->
      Latency_assign.Two_level
        { hit = cfg.Config.lat_local_hit; miss = cfg.Config.lat_local_miss }

let allow_cross_cluster_mem = function
  | Interleaved { chains; _ } -> not chains
  | Unified _ | Multivliw -> true

let target_to_string = function
  | Interleaved { heuristic = `Ibc; chains = true } -> "interleaved/IBC"
  | Interleaved { heuristic = `Ipbc; chains = true } -> "interleaved/IPBC"
  | Interleaved { heuristic = `Ibc; chains = false } ->
      "interleaved/IBC-nochains"
  | Interleaved { heuristic = `Ipbc; chains = false } ->
      "interleaved/IPBC-nochains"
  | Unified { slow = false } -> "unified/L1"
  | Unified { slow = true } -> "unified/L5"
  | Multivliw -> "multiVLIW"

let policy_of_target target ~chains ~profile =
  match target with
  | Interleaved { heuristic = `Ibc; chains = true } ->
      Cluster_heuristic.Ibc chains
  | Interleaved { heuristic = `Ipbc; chains = true } ->
      Cluster_heuristic.Ipbc (chains, profile)
  | Interleaved { heuristic = `Ipbc; chains = false } ->
      Cluster_heuristic.Preferred_no_chains profile
  | Multivliw ->
      (* The paper schedules the multiVLIW with the IBC heuristic: its
         coherence protocol makes cross-cluster memory dependences legal,
         but keeping a chain together avoids MSI ping-pong. *)
      Cluster_heuristic.Ibc chains
  | Interleaved { heuristic = `Ibc; chains = false } | Unified _ ->
      Cluster_heuristic.All_free

type candidate = {
  latencies : int array;
  schedule : Schedule.t;
  rejections : int;
}

(* The scheduling work of one candidate factor: latency assignment and
   the clustered modulo schedule. *)
let schedule_candidate cfg ~target ~source ~factor (loop : Loop.t) ~profile
    ~chains =
  let rejections0 = Vliw_sched.Mrt.bus_rejections () in
  let mode = mode_of_target cfg target in
  let latencies = Latency_assign.assign cfg loop.Loop.ddg ~mode ~profile in
  let policy = policy_of_target target ~chains ~profile in
  let hooks = Cluster_heuristic.hooks loop.Loop.ddg policy in
  match
    Engine.schedule cfg loop.Loop.ddg
      ~latency:(fun i -> latencies.(i))
      ~hooks
      ~allow_cross_cluster_mem:(allow_cross_cluster_mem target)
      ()
  with
  | None ->
      raise
        (Scheduling_failed
           (Printf.sprintf "loop %s, unroll factor %d" source.Loop.name factor))
  | Some schedule ->
      {
        latencies;
        schedule;
        rejections = Vliw_sched.Mrt.bus_rejections () - rejections0;
      }

let compile_factor cfg ~target ~profiler ~share ~source ~base_profile factor =
  let loop = Loop.unrolled source ~factor in
  (* Unrolling by 1 shares the source's DDG and trip count, so its
     profile is the base profile already in hand — re-profiling it would
     repeat the most expensive phase of a selective compile. *)
  let profile =
    lazy (if factor = 1 then base_profile else profiler loop)
  in
  let chains = Chains.build loop.Loop.ddg in
  let c =
    share ~factor (fun () ->
        (* One deterministic work unit per candidate scheduled, charged
           before its profile run: a request deadline cancels the
           selective search between factors, never mid-schedule, and a
           candidate [share] hands back costs none. *)
        Vliw_parallel.Cancel.tick ~stage:("compile " ^ source.Loop.name) 1;
        schedule_candidate cfg ~target ~source ~factor loop
          ~profile:(Lazy.force profile) ~chains)
  in
  let profile = Lazy.force profile in
  {
    source;
    target;
    unroll_factor = factor;
    loop;
    profile;
    latencies = c.latencies;
    chains;
    schedule = c.schedule;
    estimated_cycles =
      Unroll_select.estimated_cycles ~trip_count:loop.Loop.trip_count
        ~ii:c.schedule.Schedule.ii
        ~stage_count:(Schedule.stage_count c.schedule);
    considered = [];
    bus_window_rejections = c.rejections;
  }

let compile_shared cfg ~target ~strategy ~profiler ~share source =
  let base_profile = profiler source in
  let factors =
    Unroll_select.candidate_factors cfg source.Loop.ddg ~profile:base_profile
      strategy
  in
  let candidates =
    List.map
      (compile_factor cfg ~target ~profiler ~share ~source ~base_profile)
      factors
  in
  match candidates with
  | [] -> raise (Scheduling_failed source.Loop.name)
  | first :: rest ->
      (* Candidates come in ascending factor order; on an exact Texec tie
         the larger factor wins — its locality is free. *)
      let best =
        List.fold_left
          (fun best c ->
            if c.estimated_cycles <= best.estimated_cycles then c else best)
          first rest
      in
      let best =
        {
          best with
          considered =
            List.map (fun c -> (c.unroll_factor, c.estimated_cycles)) candidates;
          (* Every bus-window rejection of the whole selective search:
             each candidate's own count, whether it was scheduled here
             or shared. *)
          bus_window_rejections =
            List.fold_left (fun acc c -> acc + c.bus_window_rejections) 0
              candidates;
        }
      in
      !check_hook cfg best;
      best

let compile cfg ~target ~strategy ~profiler source =
  compile_shared cfg ~target ~strategy ~profiler
    ~share:(fun ~factor:_ schedule -> schedule ())
    source
