module Access = Vliw_arch.Access
module Arch = Vliw_arch
module Config = Vliw_arch.Config
module Ddg = Vliw_ir.Ddg
module Loop = Vliw_ir.Loop
module Mem_access = Vliw_ir.Mem_access
module Operation = Vliw_ir.Operation
module Pipeline = Vliw_core.Pipeline
module Profile = Vliw_core.Profile
module Schedule = Vliw_sched.Schedule

(* Preferred-cluster distribution below which an operation counts as
   having "unclear preferred cluster information". *)
let unclear_threshold = 0.9

(* Static per-operation inputs to the Figure-5 factor classification. *)
let stall_factors cfg (c : Pipeline.compiled) op =
  let ddg = c.Pipeline.loop.Loop.ddg in
  let ni = Config.max_unroll cfg in
  match (Ddg.op ddg op).Operation.mem with
  | None -> []
  | Some m ->
      let factors = ref [] in
      let add cond f = if cond then factors := f :: !factors in
      add
        (m.Mem_access.indirect || m.Mem_access.stride mod ni <> 0)
        Stats.More_than_one_cluster;
      add
        (m.Mem_access.granularity > cfg.Config.interleaving_factor)
        Stats.Granularity;
      (match Profile.get c.Pipeline.profile op with
      | Some p ->
          add (Profile.distribution p < unclear_threshold)
            Stats.Unclear_preferred;
          add
            (c.Pipeline.schedule.Schedule.cluster.(op)
            <> Profile.preferred_cluster p)
            Stats.Not_in_preferred
      | None -> ());
      !factors

(* The mem-ops of the loop in issue order — shared by the kernel and the
   reference so the access streams are identical (List.sort is
   stable). *)
let mem_ops_in_issue_order (c : Pipeline.compiled) =
  let sched = c.Pipeline.schedule in
  Ddg.memory_ops c.Pipeline.loop.Loop.ddg
  |> List.sort (fun a b ->
         compare sched.Schedule.start.(a) sched.Schedule.start.(b))

(* ------------------------------------------------------------------ *)
(* The access plan.

   Everything the steady-state loop needs is precomputed into flat
   arrays indexed by mem-op plan position: start cycle, cluster, parts,
   store flag, promised latency, and the Figure-5 factor mask.  The
   record is the interleaved cache's, whose batch loop reads it. *)

type plan = Arch.Interleaved_cache.plan = {
  starts : int array;
  clusters : int array;
  stores : bool array;
  parts : int array;
  promised : int array;
  factor_masks : int array;  (* Stats.factor_mask of the op's factors *)
}

(* The plan and the op id at each of its positions. *)
let build_plan cfg (c : Pipeline.compiled) =
  let ddg = c.Pipeline.loop.Loop.ddg in
  let sched = c.Pipeline.schedule in
  let i_factor = cfg.Config.interleaving_factor in
  let ops = Array.of_list (mem_ops_in_issue_order c) in
  let n = Array.length ops in
  let p =
    {
      starts = Array.make n 0;
      clusters = Array.make n 0;
      stores = Array.make n false;
      parts = Array.make n 1;
      promised = Array.make n 0;
      factor_masks = Array.make n 0;
    }
  in
  Array.iteri
    (fun k op ->
      let o = Ddg.op ddg op in
      p.starts.(k) <- sched.Schedule.start.(op);
      p.clusters.(k) <- sched.Schedule.cluster.(op);
      p.stores.(k) <- Operation.is_store o;
      (* Elements wider than the interleaving factor span several
         clusters: the access completes when its slowest part does and
         is classified by that part (so a double-word access can never
         be a plain local hit — Section 5.2). *)
      let granularity =
        match o.Operation.mem with
        | Some m -> m.Mem_access.granularity
        | None -> i_factor
      in
      p.parts.(k) <- max 1 ((granularity + i_factor - 1) / i_factor);
      p.promised.(k) <- c.Pipeline.latencies.(op);
      p.factor_masks.(k) <-
        Stats.factor_mask (stall_factors cfg c op))
    ops;
  (ops, p)

(* ------------------------------------------------------------------ *)
(* Address traces.

   The address a mem op resolves to depends only on (op, iteration) —
   never on the cache configuration — so one flat trace, laid out
   row-major by iteration over plan positions, serves every config a
   plan is swept against.  Context memoizes these per (plan, layout)
   so repeated sweeps over the same compiled loop skip re-deriving the
   stream entirely. *)

let trace_of_ops ops ~trip ~addr_of =
  let n = Array.length ops in
  let t = Array.make (n * trip) 0 in
  for iter = 0 to trip - 1 do
    let row = iter * n in
    for k = 0 to n - 1 do
      t.(row + k) <- addr_of ~op:ops.(k) ~iter
    done
  done;
  t

let address_trace (c : Pipeline.compiled) ~addr_of =
  trace_of_ops
    (Array.of_list (mem_ops_in_issue_order c))
    ~trip:c.Pipeline.loop.Loop.trip_count ~addr_of

(* Resolve the base-address source: a caller-provided memoized trace, or
   one derived on the spot from [addr_of].  Deriving costs exactly the
   address computations the un-traced kernel performed inline, so the
   steady-state loop below is a pure array read either way.  A supplied
   trace must cover the plan's full trip count even when only [trip]
   iterations will be simulated — memoized traces are always
   full-length, and the length check is the cross-check that the trace
   belongs to this plan. *)
let resolve_trace ops ~trip ~full_trip ~addr_of ~addr_trace =
  match addr_trace with
  | Some t ->
      if Array.length t <> Array.length ops * full_trip then
        invalid_arg "Executor: address trace length does not match the plan";
      t
  | None -> (
      match addr_of with
      | Some f -> trace_of_ops ops ~trip ~addr_of:f
      | None ->
          invalid_arg "Executor: either ~addr_of or ~addr_trace is required")

(* ------------------------------------------------------------------ *)
(* The kernel: N cache configurations in lockstep over a single
   traversal of one access plan.  A solo run is the one-cell batch.

   Sweeps (fig6 configurations, AB sizes, the traffic ablation, the
   design-space autopilot) re-execute the same compiled plan against
   many memory-hierarchy points.  The plan, the Figure-5 factor masks
   and the address trace are identical across those points, so the
   kernel hoists them out and keeps only what genuinely differs per
   configuration as struct-of-arrays batch state: each cell's
   accumulated stall (its own clock skew), its counters, its attract
   flags per plan position, and its machine.

   The batch splits by backend.  The interleaved cells — every sweep's
   bulk — run in [Interleaved_cache.run_batch], the per-(iteration, op,
   part, cell) loop in the same compilation unit as the cache's access
   path, so no call on it crosses a module: dune's default profile
   builds with -opaque, and there every cross-module call is a
   [caml_applyN] that nothing inlines.  Its counts come back as int
   tallies, added to each cell's Stats once per loop.  The unified and
   multiVLIW cells run in the closure loop below, one monomorphic access
   closure per cell, results through a mutable scratch slot.  Neither
   loop allocates per access; miss paths may grow a cache's pending or
   spill table, which is amortized and bounded by the blocks in
   flight.

   Both loops decode each part of a mem-op's address once per iteration
   and dispatch it to each of their cells.  Cells are independent —
   each has its own machine, stall clock and statistics — so every
   cell's per-access sequence is exactly what a one-cell batch of that
   config would produce: results are bit-identical whatever the batch
   composition, which the golden suite and the batch-composition
   qcheck property assert. *)

type batch_cell = {
  machine : Machine.t;
  attractable : bool array option;
}

(* The unified and multiVLIW cells over iterations [from, until). *)
let run_closure_cells (p : plan) ~(dec : Config.decode) ~i_factor ~ii ~trace
    ~from ~until accesses stalls stats =
  let n = Array.length p.starts in
  let m = Array.length accesses in
  let { Config.block_shift; unit_shift; cluster_mask; _ } = dec in
  let max_parts = Array.fold_left max 1 p.parts in
  let blocks = Array.make max_parts 0 in
  let homes = Array.make max_parts 0 in
  let out = Access.scratch () in
  let slowest = Access.scratch () in
  for iter = from to until - 1 do
    let row = iter * n in
    for k = 0 to n - 1 do
      let base = trace.(row + k) in
      let parts = p.parts.(k) in
      for q = 0 to parts - 1 do
        let addr = base + (q * i_factor) in
        blocks.(q) <- addr lsr block_shift;
        homes.(q) <- (addr lsr unit_shift) land cluster_mask
      done;
      let slot = (iter * ii) + p.starts.(k) in
      for j = 0 to m - 1 do
        let issue = slot + stalls.(j) in
        let access = accesses.(j) in
        access out k ~now:issue blocks.(0);
        slowest.Access.s_kind <- out.Access.s_kind;
        slowest.Access.s_ready_at <- out.Access.s_ready_at;
        for q = 1 to parts - 1 do
          access out k ~now:issue blocks.(q);
          if out.Access.s_ready_at >= slowest.Access.s_ready_at then begin
            slowest.Access.s_kind <- out.Access.s_kind;
            slowest.Access.s_ready_at <- out.Access.s_ready_at
          end
        done;
        let st = stats.(j) in
        let kind = slowest.Access.s_kind in
        Stats.count_access st kind;
        if not p.stores.(k) then begin
          let s = slowest.Access.s_ready_at - (issue + p.promised.(k)) in
          if s > 0 then begin
            stalls.(j) <- stalls.(j) + s;
            Stats.count_stall st kind ~cycles:s;
            if kind = Access.Remote_hit then
              Stats.count_stall_factor_mask st p.factor_masks.(k)
          end
        end
      done
    done
  done

let run_loop_batched cfg (cells : batch_cell array) (c : Pipeline.compiled)
    ?addr_of ?addr_trace ?trip () =
  let full_trip = c.Pipeline.loop.Loop.trip_count in
  (* The sweep's fidelity/wall-clock knob: simulate only the first
     [trip] unrolled iterations.  Every cell of the batch is cut at the
     same point and compute time uses the cut count, so a capped run is
     exactly a shortened loop — still bit-identical across cells, jobs
     and batch compositions. *)
  let trip =
    match trip with
    | Some t -> max 1 (min t full_trip)
    | None -> full_trip
  in
  let sched = c.Pipeline.schedule in
  let ii = sched.Schedule.ii in
  let ops, p = build_plan cfg c in
  let m = Array.length cells in
  let i_factor = cfg.Config.interleaving_factor in
  let trace = resolve_trace ops ~trip ~full_trip ~addr_of ~addr_trace in
  (* Each part is decoded once for every cell, so the cells must decode
     like the plan.  The shifts are [Config.block_of] and [home_of]
     inlined, as a call per part would be a cross-module one. *)
  let dec = Config.decoder cfg in
  if Array.exists (fun cell -> Machine.decode cell.machine <> dec) cells then
    invalid_arg "Executor: a cell's machine decodes addresses unlike the plan";
  let stats = Array.init m (fun _ -> Stats.create ()) in
  (* Split the batch by backend, keeping each cell's position.  Each
     unified or multiVLIW cell gets one monomorphic access closure,
     built once: the backend dispatch happens here, not per access. *)
  let iw = ref [] and others = ref [] in
  Array.iteri
    (fun j cell ->
      match Machine.state cell.machine with
      | Machine.Interleaved_state ic -> iw := (j, ic) :: !iw
      | Machine.Unified_state uc ->
          others :=
            (j, fun out _ ~now block -> Arch.Unified_cache.access uc out ~now ~block)
            :: !others
      | Machine.Coherent_state cc ->
          others :=
            ( j,
              fun out k ~now block ->
                Arch.Coherent_cache.access cc out ~now ~cluster:p.clusters.(k)
                  ~block ~store:p.stores.(k) )
            :: !others)
    cells;
  let iw = Array.of_list (List.rev !iw) in
  let others = Array.of_list (List.rev !others) in
  let caches = Array.map snd iw in
  let attract_all = Array.make (Array.length ops) true in
  let attracts =
    Array.map
      (fun (j, _) ->
        match cells.(j).attractable with
        | None -> attract_all (* shared read-only *)
        | Some flags -> Array.map (fun op -> flags.(op)) ops)
      iw
  in
  let iw_stalls = Array.make (Array.length iw) 0 in
  let tallies = Array.map (fun _ -> Array.make Stats.tally_size 0) iw in
  let accesses = Array.map snd others in
  let other_stalls = Array.make (Array.length others) 0 in
  let other_stats = Array.map (fun (j, _) -> stats.(j)) others in
  (* In chunks of 256 unrolled iterations, each opened by the deadline
     tick: [m] work units (one per simulated config), coarse enough to
     cost nothing, at an iteration boundary so a cancelled run is cut at
     the same trip point regardless of host or batch composition. *)
  let rec chunks from =
    if from < trip then begin
      Vliw_parallel.Cancel.tick ~stage:"simulate" m;
      let until = min trip (from + 256) in
      if Array.length iw > 0 then
        Arch.Interleaved_cache.run_batch caches ~attracts p ~decode:dec
          ~i_factor ~ii ~trace ~from ~until ~stalls:iw_stalls ~tallies;
      if Array.length others > 0 then
        run_closure_cells p ~dec ~i_factor ~ii ~trace ~from ~until accesses
          other_stalls other_stats;
      chunks until
    end
  in
  chunks 0;
  Array.iteri (fun i (j, _) -> Stats.add_tally stats.(j) tallies.(i)) iw;
  let compute = (trip + Schedule.stage_count sched - 1) * ii in
  Array.iter (fun st -> Stats.add_compute st compute) stats;
  Array.iter (fun cell -> Machine.end_of_loop cell.machine) cells;
  stats

let run_loop cfg machine c ?addr_of ?addr_trace () =
  (run_loop_batched cfg [| { machine; attractable = None } |] c ?addr_of
     ?addr_trace ()).(0)

(* ------------------------------------------------------------------ *)
(* The straightforward list-based executor the kernel above replaced,
   kept as the executable specification: the golden-equivalence suite
   asserts the kernel produces bit-identical statistics on every
   backend.  No experiment driver uses it; it stays in the library
   because the repository benchmark's correctness check
   (perfbench/compiles.ml) calls it too. *)

let run_loop_reference cfg machine (c : Pipeline.compiled) ~addr_of
    ?attractable () =
  let ddg = c.Pipeline.loop.Loop.ddg in
  let sched = c.Pipeline.schedule in
  let trip = c.Pipeline.loop.Loop.trip_count in
  let ii = sched.Schedule.ii in
  let mem_ops = mem_ops_in_issue_order c in
  let factors_of =
    let cache = Hashtbl.create 16 in
    fun op ->
      match Hashtbl.find_opt cache op with
      | Some f -> f
      | None ->
          let f = stall_factors cfg c op in
          Hashtbl.add cache op f;
          f
  in
  let stats = Stats.create () in
  let stall = ref 0 in
  let r = Access.scratch () in
  let rp = Access.scratch () in
  for iter = 0 to trip - 1 do
    List.iter
      (fun op ->
        let issue = (iter * ii) + sched.Schedule.start.(op) + !stall in
        let o = Ddg.op ddg op in
        let store = Operation.is_store o in
        let attract =
          match attractable with None -> true | Some flags -> flags.(op)
        in
        let i_factor = cfg.Config.interleaving_factor in
        let granularity =
          match o.Operation.mem with
          | Some m -> m.Vliw_ir.Mem_access.granularity
          | None -> i_factor
        in
        let parts = max 1 ((granularity + i_factor - 1) / i_factor) in
        let base_addr = addr_of ~op ~iter in
        let part out p =
          Machine.access machine out ~attract ~now:issue
            ~cluster:sched.Schedule.cluster.(op)
            ~addr:(base_addr + (p * i_factor))
            ~store
        in
        part r 0;
        for p = 1 to parts - 1 do
          part rp p;
          if rp.Access.s_ready_at >= r.Access.s_ready_at then begin
            r.Access.s_kind <- rp.Access.s_kind;
            r.Access.s_ready_at <- rp.Access.s_ready_at
          end
        done;
        Stats.count_access stats r.Access.s_kind;
        if not store then begin
          let promised = issue + c.Pipeline.latencies.(op) in
          let s = r.Access.s_ready_at - promised in
          if s > 0 then begin
            stall := !stall + s;
            Stats.count_stall stats r.Access.s_kind ~cycles:s;
            if r.Access.s_kind = Access.Remote_hit then
              List.iter (Stats.count_stall_factor stats) (factors_of op)
          end
        end)
      mem_ops
  done;
  Stats.add_compute stats
    ((trip + Schedule.stage_count sched - 1) * ii);
  Machine.end_of_loop machine;
  stats
