module Access = Vliw_arch.Access
module Ddg = Vliw_ir.Ddg
module Operation = Vliw_ir.Operation
module Machine = Vliw_sim.Machine
module Stats = Vliw_sim.Stats
module Layout = Vliw_workloads.Layout
module D = Diagnostic

let audit_stats ~arch ~n_mem_ops ~trip ~ii ~stage_count ?(where = "sim") stats
    =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  List.iter
    (fun k ->
      if Stats.accesses stats k < 0 then
        add
          (D.error ~pass:"sim/negative" ~where "negative %s count %d"
             (Access.kind_to_string k) (Stats.accesses stats k));
      if Stats.stall_of stats k < 0 then
        add
          (D.error ~pass:"sim/negative" ~where "negative %s stall %d"
             (Access.kind_to_string k) (Stats.stall_of stats k)))
    Access.all_kinds;
  let expected_accesses = trip * n_mem_ops in
  if Stats.total_accesses stats <> expected_accesses then
    add
      (D.error ~pass:"sim/access-count" ~where
         "%d accesses recorded; %d iterations x %d memory ops = %d expected"
         (Stats.total_accesses stats) trip n_mem_ops expected_accesses);
  let expected_compute = (trip + stage_count - 1) * ii in
  if Stats.compute_cycles stats <> expected_compute then
    add
      (D.error ~pass:"sim/compute" ~where
         "%d compute cycles; (trip %d + SC %d - 1) x II %d = %d expected"
         (Stats.compute_cycles stats) trip stage_count ii expected_compute);
  if Stats.stall_of stats Access.Local_hit <> 0 then
    add
      (D.error ~pass:"sim/local-hit-stall" ~where
         "%d stall cycles attributed to local hits: promised latencies \
          always cover a local hit"
         (Stats.stall_of stats Access.Local_hit));
  (* Access classes a backend can never produce. *)
  let forbid k why =
    if Stats.accesses stats k <> 0 || Stats.stall_of stats k <> 0 then
      add
        (D.error ~pass:"sim/class" ~where "%d %s accesses (%d stall): %s"
           (Stats.accesses stats k) (Access.kind_to_string k)
           (Stats.stall_of stats k) why)
  in
  (match arch with
  | Machine.Unified _ ->
      forbid Access.Remote_hit "a unified cache has no remote accesses";
      forbid Access.Remote_miss "a unified cache has no remote accesses"
  | Machine.Multivliw ->
      forbid Access.Remote_miss
        "multiVLIW misses fill from the next level as local misses"
  | Machine.Word_interleaved _ -> ());
  (* A Figure-5 factor is counted at most once per stalling remote hit. *)
  List.iter
    (fun f ->
      if Stats.factor_count stats f > Stats.accesses stats Access.Remote_hit
      then
        add
          (D.error ~pass:"sim/factor-bound" ~where
             "factor %S counted %d times with only %d remote hits"
             (Stats.factor_to_string f) (Stats.factor_count stats f)
             (Stats.accesses stats Access.Remote_hit)))
    Stats.all_factors;
  List.rev !diags

let audit_traffic ~arch ~stats ~traffic ?(max_parts = 1) ?(where = "sim") ()
    =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let get key = List.assoc_opt key traffic in
  let expect_keys keys =
    List.iter
      (fun (key, _) ->
        if not (List.mem key keys) then
          add
            (D.error ~pass:"sim/traffic-keys" ~where
               "unexpected traffic counter %S for %s" key
               (Machine.arch_to_string arch)))
      traffic;
    List.iter
      (fun key ->
        if get key = None then
          add
            (D.error ~pass:"sim/traffic-keys" ~where
               "missing traffic counter %S for %s" key
               (Machine.arch_to_string arch)))
      keys
  in
  (* Traffic counters bump once per *part* access — an element wider than
     the interleaving factor issues one cache access per interleaving
     unit — while [Stats] classifies each element once, by its slowest
     part.  With [max_parts = 1] the two views coincide and the laws are
     exact equalities; with wider elements a filling or remote part can
     be shadowed by a slower sibling (typically the element's own
     in-flight fill, classified Combined), so each law relaxes to a
     lower bound from the elements that *were* classified that way plus
     a [max_parts]-scaled upper bound over the kinds that can hide such
     a part. *)
  let balance pass key expected why =
    match get key with
    | None -> () (* expect_keys already reported it *)
    | Some v ->
        if v <> expected then
          add
            (D.error ~pass ~where "%s = %d but %s = %d" key v why expected)
  in
  let bounded pass key ~lower ~upper ~lower_why ~upper_why =
    match get key with
    | None -> ()
    | Some v ->
        if v < lower then
          add
            (D.error ~pass ~where "%s = %d below %s = %d" key v lower_why
               lower)
        else if v > upper then
          add
            (D.error ~pass ~where
               "%s = %d above %d parts x %s = %d" key v max_parts upper_why
               upper)
  in
  let rh = Stats.accesses stats Access.Remote_hit in
  let lm = Stats.accesses stats Access.Local_miss in
  let rm = Stats.accesses stats Access.Remote_miss in
  let cb = Stats.accesses stats Access.Combined in
  (match arch with
  | Machine.Word_interleaved { attraction_buffers } ->
      expect_keys [ "remote words"; "block fills"; "attractions" ];
      if max_parts <= 1 then begin
        balance "sim/remote-balance" "remote words" (rh + rm)
          "remote hits + remote misses";
        balance "sim/fill-balance" "block fills" (lm + rm) "misses"
      end
      else begin
        bounded "sim/remote-balance" "remote words" ~lower:(rh + rm)
          ~upper:(max_parts * (rh + rm + lm + cb))
          ~lower_why:"remote hits + remote misses"
          ~upper_why:"(remote + miss + combined) elements";
        bounded "sim/fill-balance" "block fills" ~lower:(lm + rm)
          ~upper:(max_parts * (lm + rm + cb))
          ~lower_why:"misses" ~upper_why:"(miss + combined) elements"
      end;
      (match (get "attractions", get "remote words") with
      | None, _ -> ()
      | Some a, _ when not attraction_buffers ->
          if a <> 0 then
            add
              (D.error ~pass:"sim/attraction-bound" ~where
                 "%d attractions with attraction buffers disabled" a)
      | Some a, rw ->
          (* Every attraction coincides with a remote-hit part, which
             also bumps the remote-word counter. *)
          let cap = match rw with Some rw -> min rw (max_parts * rh) | None -> max_parts * rh in
          if a > cap then
            add
              (D.error ~pass:"sim/attraction-bound" ~where
                 "%d attractions exceed the %d remote-hit parts that could \
                  have triggered them"
                 a cap))
  | Machine.Multivliw -> (
      expect_keys [ "invalidations"; "cache-to-cache"; "memory fills"; "snoops" ];
      if max_parts <= 1 then begin
        balance "sim/remote-balance" "cache-to-cache" rh "remote hits";
        balance "sim/fill-balance" "memory fills" lm "local misses"
      end
      else begin
        bounded "sim/remote-balance" "cache-to-cache" ~lower:rh
          ~upper:(max_parts * (rh + lm + cb))
          ~lower_why:"remote hits"
          ~upper_why:"(remote hit + miss + combined) elements";
        bounded "sim/fill-balance" "memory fills" ~lower:lm
          ~upper:(max_parts * (lm + cb))
          ~lower_why:"local misses" ~upper_why:"(miss + combined) elements"
      end;
      match (get "snoops", get "cache-to-cache", get "memory fills") with
      | Some s, Some c2c, Some fills ->
          if s < c2c + fills then
            add
              (D.error ~pass:"sim/snoop-balance" ~where
                 "%d snoops below the %d bus transactions that must have \
                  been watched"
                 s (c2c + fills))
      | _ -> ())
  | Machine.Unified _ ->
      expect_keys [];
      if rh <> 0 || rm <> 0 then
        add
          (D.error ~pass:"sim/class" ~where
             "unified cache reported %d remote hits / %d remote misses" rh rm));
  List.rev !diags

let audit_addr_plan layout ddg ?(where = "sim") () =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let staged = Layout.addr_fn layout ddg in
  (* 64 geometric iteration samples: early iterations, then doublings
     so footprint wrap-arounds are crossed. *)
  let iters =
    List.sort_uniq compare
      (List.init 64 (fun i ->
           if i < 8 then i else 1 lsl (4 + ((i - 8) mod 24))))
  in
  List.iter
    (fun op ->
      let o = Ddg.op ddg op in
      match o.Operation.mem with
      | None -> ()
      | Some m ->
          let w = Printf.sprintf "%s/n%d(%s)" where op m.Vliw_ir.Mem_access.symbol in
          List.iter
            (fun iter ->
              let planned = staged ~op ~iter in
              let direct = Layout.address layout m ~op ~iter in
              if planned <> direct then
                add
                  (D.error ~pass:"sim/addr-plan" ~where:w
                     "iteration %d: staged plan yields %#x, direct \
                      computation %#x"
                     iter planned direct);
              let g = m.Vliw_ir.Mem_access.granularity in
              if g > 0 && planned mod g <> 0 then
                add
                  (D.error ~pass:"sim/addr-align" ~where:w
                     "iteration %d: address %#x not aligned to %dB" iter
                     planned g))
            iters)
    (Ddg.memory_ops ddg);
  List.rev !diags
