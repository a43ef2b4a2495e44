module Config = Vliw_arch.Config
module Set_assoc = Vliw_arch.Set_assoc
module Ddg = Vliw_ir.Ddg
module Loop = Vliw_ir.Loop
module Operation = Vliw_ir.Operation
module Profile = Vliw_core.Profile

(* Profiling replays at most this many iterations per loop; hit rates
   and cluster distributions converge far earlier. *)
let iteration_cap = 4096

(* Like the executor, the profiler walks trip_count x mem-ops accesses,
   so its inner loop runs on flat per-op arrays and the staged
   [Layout.addr_fn] plan — no per-access closure, [Ddg.op] lookup or
   symbol hashing. *)
let profile_loop (cfg : Config.t) layout (loop : Loop.t) =
  let ddg = loop.Loop.ddg in
  let n = Ddg.n_ops ddg in
  let mem_ops = Ddg.memory_ops ddg in
  let n_blocks = cfg.Config.cache_size / cfg.Config.block_size in
  let tags =
    Set_assoc.create
      ~sets:(n_blocks / cfg.Config.associativity)
      ~ways:cfg.Config.associativity
  in
  let hits = Array.make n 0 in
  let counts = Array.make n 0 in
  let clusters = Array.make_matrix n cfg.Config.n_clusters 0 in
  let iters = min loop.Loop.trip_count iteration_cap in
  let i_factor = cfg.Config.interleaving_factor in
  let ops = Array.of_list mem_ops in
  let nm = Array.length ops in
  let parts = Array.make nm 1 in
  Array.iteri
    (fun k op ->
      let granularity =
        match (Ddg.op ddg op).Operation.mem with
        | Some m -> m.Vliw_ir.Mem_access.granularity
        | None -> i_factor
      in
      parts.(k) <- max 1 ((granularity + i_factor - 1) / i_factor))
    ops;
  let addr_of = Layout.addr_fn layout ddg in
  let dec = Config.decoder cfg in
  for iter = 0 to iters - 1 do
    for k = 0 to nm - 1 do
      let op = ops.(k) in
      let addr = addr_of ~op ~iter in
      let block = Config.block_of dec addr in
      if Set_assoc.use tags block >= 0 then hits.(op) <- hits.(op) + 1
      else ignore (Set_assoc.fill tags block);
      (* [fill] refreshes a present block, as a hit would. *)
      for p = 1 to parts.(k) - 1 do
        ignore (Set_assoc.fill tags (Config.block_of dec (addr + (p * i_factor))))
      done;
      counts.(op) <- counts.(op) + 1;
      let c = Config.home_of dec addr in
      clusters.(op).(c) <- clusters.(op).(c) + 1
    done
  done;
  let profile = Profile.empty ~n_ops:n in
  List.iter
    (fun op ->
      let total = max 1 counts.(op) in
      let fractions =
        Array.map (fun c -> float_of_int c /. float_of_int total) clusters.(op)
      in
      profile.(op) <-
        Some
          (Profile.make_op
             ~hit_rate:(float_of_int hits.(op) /. float_of_int total)
             ~cluster_fractions:fractions ~accesses:counts.(op)))
    mem_ops;
  profile

let profiler = profile_loop

let memoized ~memo cfg layout ~index (source : Loop.t) (loop : Loop.t) =
  let n = Ddg.n_ops source.Loop.ddg and m = Ddg.n_ops loop.Loop.ddg in
  let factor = m / max 1 n in
  if m <> n * factor then
    invalid_arg "Profiling.memoized: not an unroll of the source loop";
  memo
    (Printf.sprintf "loop=%d|x%d" index factor)
    (fun () -> profile_loop cfg layout loop)

let table_memo () =
  let table = Hashtbl.create 16 in
  fun key compute ->
    match Hashtbl.find_opt table key with
    | Some p -> p
    | None ->
        let p = compute () in
        Hashtbl.add table key p;
        p
