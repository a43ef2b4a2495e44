(* Executable specification of the modulo reservation table: per-slot
   counters with a full-copy snapshot, and each bus transfer charged by
   counting its whole occupancy window into a fresh II-long array.
   Slow but obviously right — [Mrt]'s undo journal and window walk must
   agree with it on every interleaving (see the MRT property in
   test_props.ml).  [rejections] counts the [reg_bus_free] probes that
   answered [false], as [Mrt.bus_rejections] does per domain. *)

module Config = Vliw_arch.Config
module Opcode = Vliw_ir.Opcode

type t = {
  cfg : Config.t;
  ii : int;
  int_used : int array array;  (* [cluster].(cycle) *)
  fp_used : int array array;
  mem_used : int array array;
  issue_used : int array array;
  bus_used : int array;
  loads : int array;
  mutable rejections : int;
}

let create (cfg : Config.t) ~ii =
  let per_cluster () =
    Array.init cfg.Config.n_clusters (fun _ -> Array.make ii 0)
  in
  {
    cfg;
    ii;
    int_used = per_cluster ();
    fp_used = per_cluster ();
    mem_used = per_cluster ();
    issue_used = per_cluster ();
    bus_used = Array.make ii 0;
    loads = Array.make cfg.Config.n_clusters 0;
    rejections = 0;
  }

let slot t cycle =
  let m = cycle mod t.ii in
  if m < 0 then m + t.ii else m

let table_and_limit t = function
  | Opcode.Int_fu -> (t.int_used, t.cfg.Config.int_fus_per_cluster)
  | Opcode.Fp_fu -> (t.fp_used, t.cfg.Config.fp_fus_per_cluster)
  | Opcode.Mem_fu -> (t.mem_used, t.cfg.Config.mem_fus_per_cluster)

let fu_free t ~cluster ~fu ~cycle =
  let c = slot t cycle in
  let table, limit = table_and_limit t fu in
  table.(cluster).(c) < limit
  && t.issue_used.(cluster).(c) < t.cfg.Config.issue_width_per_cluster

let reserve_fu t ~cluster ~fu ~cycle =
  let c = slot t cycle in
  let table, _ = table_and_limit t fu in
  table.(cluster).(c) <- table.(cluster).(c) + 1;
  t.issue_used.(cluster).(c) <- t.issue_used.(cluster).(c) + 1;
  t.loads.(cluster) <- t.loads.(cluster) + 1

let issue_free t ~cluster ~cycle =
  t.issue_used.(cluster).(slot t cycle) < t.cfg.Config.issue_width_per_cluster

let reserve_issue t ~cluster ~cycle =
  let c = slot t cycle in
  t.issue_used.(cluster).(c) <- t.issue_used.(cluster).(c) + 1;
  t.loads.(cluster) <- t.loads.(cluster) + 1

(* How many times a transfer starting at [cycle] charges each slot. *)
let bus_window_usage t ~cycle =
  let usage = Array.make t.ii 0 in
  for k = 0 to t.cfg.Config.bus_occupancy - 1 do
    let s = slot t (cycle + k) in
    usage.(s) <- usage.(s) + 1
  done;
  usage

let reg_bus_free t ~cycle =
  let usage = bus_window_usage t ~cycle in
  let ok = ref true in
  Array.iteri
    (fun s u ->
      if u > 0 && t.bus_used.(s) + u > t.cfg.Config.n_reg_buses then ok := false)
    usage;
  if not !ok then t.rejections <- t.rejections + 1;
  !ok

let reserve_reg_bus t ~cycle =
  Array.iteri
    (fun s u -> t.bus_used.(s) <- t.bus_used.(s) + u)
    (bus_window_usage t ~cycle)

let cluster_load t c = t.loads.(c)

type snapshot = {
  s_int : int array array;
  s_fp : int array array;
  s_mem : int array array;
  s_issue : int array array;
  s_bus : int array;
  s_loads : int array;
}

let copy_matrix m = Array.map Array.copy m

let snapshot t =
  {
    s_int = copy_matrix t.int_used;
    s_fp = copy_matrix t.fp_used;
    s_mem = copy_matrix t.mem_used;
    s_issue = copy_matrix t.issue_used;
    s_bus = Array.copy t.bus_used;
    s_loads = Array.copy t.loads;
  }

let restore t s =
  let blit_matrix src dst =
    Array.iteri (fun i row -> Array.blit row 0 dst.(i) 0 (Array.length row)) src
  in
  blit_matrix s.s_int t.int_used;
  blit_matrix s.s_fp t.fp_used;
  blit_matrix s.s_mem t.mem_used;
  blit_matrix s.s_issue t.issue_used;
  Array.blit s.s_bus 0 t.bus_used 0 (Array.length s.s_bus);
  Array.blit s.s_loads 0 t.loads 0 (Array.length s.s_loads)
