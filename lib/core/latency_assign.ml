module Config = Vliw_arch.Config
module Ddg = Vliw_ir.Ddg
module Edge = Vliw_ir.Edge
module Mii = Vliw_ir.Mii
module Operation = Vliw_ir.Operation
module Scc = Vliw_ir.Scc
module Resources = Vliw_sched.Resources

type mode = Two_level of { hit : int; miss : int } | Four_level

let levels (cfg : Config.t) = function
  | Two_level { hit; miss } -> [ miss; hit ]
  | Four_level ->
      [
        cfg.Config.lat_remote_miss;
        cfg.Config.lat_local_miss;
        cfg.Config.lat_remote_hit;
        cfg.Config.lat_local_hit;
      ]

(* [prob] times the cycles a [class_lat] access stalls beyond [lat]. *)
let stall ~lat prob class_lat =
  if class_lat > lat then prob *. float_of_int (class_lat - lat) else 0.0

(* The probability-weighted stall over the access classes — hit/miss,
   or local/remote x hit/miss — summed in that order without building
   a list: latency assignment evaluates it for every probe. *)
let expected_stall (cfg : Config.t) ~mode p ~lat =
  let h = p.Profile.hit_rate in
  match mode with
  | Two_level { hit; miss } ->
      0.0 +. stall ~lat h hit +. stall ~lat (1.0 -. h) miss
  | Four_level ->
      let l = Profile.local_ratio p in
      0.0
      +. stall ~lat (l *. h) cfg.Config.lat_local_hit
      +. stall ~lat ((1.0 -. l) *. h) cfg.Config.lat_remote_hit
      +. stall ~lat (l *. (1.0 -. h)) cfg.Config.lat_local_miss
      +. stall ~lat ((1.0 -. l) *. (1.0 -. h)) cfg.Config.lat_remote_miss

let is_load ddg i = Operation.is_load (Ddg.op ddg i)

let initial_latencies cfg ddg ~mode =
  let top = List.hd (levels cfg mode) in
  Array.init (Ddg.n_ops ddg) (fun i ->
      if is_load ddg i then top else Ddg.default_latency ddg i)

let optimistic_latencies cfg ddg ~mode =
  let levels = levels cfg mode in
  let bottom = List.nth levels (List.length levels - 1) in
  Array.init (Ddg.n_ops ddg) (fun i ->
      if is_load ddg i then bottom else Ddg.default_latency ddg i)

let solve_with solver latencies = Mii.solve solver ~latency:(fun i -> latencies.(i))

let recurrence_solvers ddg =
  List.map (fun nodes -> (Mii.solver ddg ~nodes, nodes)) (Scc.recurrences ddg)

(* The loop MII at the optimistic latencies, from the recurrences'
   solvers ([assign] reuses its own rather than building them twice). *)
let target_with cfg ddg ~mode solvers =
  let optimistic = optimistic_latencies cfg ddg ~mode in
  List.fold_left
    (fun acc (solver, _) -> max acc (solve_with solver optimistic))
    (Resources.res_mii cfg ddg) solvers

let target_mii cfg ddg ~mode = target_with cfg ddg ~mode (recurrence_solvers ddg)

let benefit cfg ddg ~mode ~profile ~latencies ~recurrence ~op ~to_lat =
  let solver = Mii.solver ddg ~nodes:recurrence in
  let old_ii = solve_with solver latencies in
  let saved = latencies.(op) in
  latencies.(op) <- to_lat;
  let new_ii = solve_with solver latencies in
  latencies.(op) <- saved;
  match Profile.get profile op with
  | None -> invalid_arg "Latency_assign.benefit: not a memory operation"
  | Some p ->
      let d_stall =
        expected_stall cfg ~mode p ~lat:to_lat
        -. expected_stall cfg ~mode p ~lat:saved
      in
      (float_of_int (old_ii - new_ii), d_stall)

(* Raise [op]'s latency as far as the recurrence tolerates at [target]
   ("the last memory instruction whose latency has been changed is
   increased so that the II of the recurrence is equal to the MII"). *)
let restore_slack ddg ~solver latencies ~recurrence ~op ~target =
  let fits lat =
    let saved = latencies.(op) in
    latencies.(op) <- lat;
    let ok =
      Mii.solve_feasible solver ~latency:(fun i -> latencies.(i)) ~ii:target
    in
    latencies.(op) <- saved;
    ok
  in
  let total_distance =
    (* Upper bound on useful slack: raising latency by target*D cannot
       keep the recurrence II at [target] beyond this. *)
    let n = Ddg.n_ops ddg in
    let in_set = Array.make n false in
    List.iter (fun v -> in_set.(v) <- true) recurrence;
    List.fold_left
      (fun acc (e : Edge.t) ->
        if in_set.(e.src) && in_set.(e.dst) then acc + e.distance else acc)
      0 (Ddg.edges ddg)
  in
  let lo = latencies.(op) and hi = latencies.(op) + (target * (total_distance + 1)) in
  (* Largest feasible latency in [lo, hi]; feasibility is downward closed. *)
  let rec search lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi + 1) / 2 in
      if fits mid then search mid hi else search lo (mid - 1)
  in
  if fits lo then latencies.(op) <- search lo hi

let assign cfg ddg ~mode ~profile =
  let ladder = Array.of_list (levels cfg mode) in
  let latencies = initial_latencies cfg ddg ~mode in
  let solvers = recurrence_solvers ddg in
  let target = target_with cfg ddg ~mode solvers in
  let recurrences =
    solvers
    |> List.map (fun (solver, nodes) ->
           (solve_with solver latencies, solver, nodes))
    |> List.sort (fun (a, _, na) (b, _, nb) ->
           if a <> b then compare b a
           else compare (List.fold_left min max_int na)
                  (List.fold_left min max_int nb))
    |> List.map (fun (_, s, nodes) -> (s, nodes))
  in
  (* One closure over the latency vector serves every probe: a probe
     writes its candidate latency into the vector and restores it.  The
     probe loops are plain loops over arrays, so the best-so-far lives
     in unboxed locals. *)
  let latency i = latencies.(i) in
  let reduce (solver, recurrence) =
    let loads =
      Array.of_list
        (List.filter
           (fun v -> is_load ddg v && Option.is_some (Profile.get profile v))
           recurrence)
    in
    if Array.length loads > 0 then begin
      let last_changed = ref (-1) in
      let continue = ref true in
      (* The loop only ever lowers latencies, so the last solved II stays
         a feasible upper bound for every candidate probe — carrying it
         (and the committed candidate's II) keeps each probe's binary
         search short instead of restarting from the worst-case bound. *)
      let cur_ii = ref (Mii.solve solver ~latency) in
      while !continue && !cur_ii > target do
        let old_ii = !cur_ii in
        (* Best (B, delta_ii, -m, -l') over every load x lower-level
           candidate, compared lexicographically; a tie keeps the
           earlier candidate. *)
        let found = ref false
        and best_b = ref 0.0
        and best_d_ii = ref 0.0
        and best_m = ref 0
        and best_l = ref 0
        and best_ii = ref 0 in
        for i = 0 to Array.length loads - 1 do
          let m = loads.(i) in
          let saved = latencies.(m) in
          let p = Option.get (Profile.get profile m) in
          let old_stall = expected_stall cfg ~mode p ~lat:saved in
          for k = 0 to Array.length ladder - 1 do
            let l' = ladder.(k) in
            if l' < saved then begin
              latencies.(m) <- l';
              let new_ii = Mii.solve solver ~upper_feasible:old_ii ~latency in
              latencies.(m) <- saved;
              let d_ii = float_of_int (old_ii - new_ii) in
              let d_stall = expected_stall cfg ~mode p ~lat:l' -. old_stall in
              let b = if d_stall <= 1e-9 then infinity else d_ii /. d_stall in
              if
                (not !found) || b > !best_b
                || b = !best_b
                   && (d_ii > !best_d_ii
                      || d_ii = !best_d_ii
                         && (m < !best_m || (m = !best_m && l' < !best_l)))
              then begin
                found := true;
                best_b := b;
                best_d_ii := d_ii;
                best_m := m;
                best_l := l';
                best_ii := new_ii
              end
            end
          done
        done;
        if not !found then continue := false
        else begin
          latencies.(!best_m) <- !best_l;
          last_changed := !best_m;
          cur_ii := !best_ii
        end
      done;
      if !last_changed >= 0 && !cur_ii < target then
        restore_slack ddg ~solver latencies ~recurrence ~op:!last_changed
          ~target
    end
  in
  List.iter reduce recurrences;
  latencies
