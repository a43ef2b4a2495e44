module Config = Vliw_arch.Config
module Opcode = Vliw_ir.Opcode

(* The per-cycle arrays may be longer than the II: {!reset} keeps them
   for a smaller II, and only slots [0, ii) are ever charged. *)
type t = {
  cfg : Config.t;
  mutable ii : int;
  mutable int_used : int array array;  (** [cluster].(cycle) *)
  mutable fp_used : int array array;
  mutable mem_used : int array array;
  mutable issue_used : int array array;
  mutable bus_used : int array;
      (** transfers holding some register bus at a cycle *)
  loads : int array;  (** issue slots per cluster, across all cycles *)
  mutable journal : int array;
      (** one packed [(kind, cluster, slot)] entry per reservation, oldest
          first; {!restore} pops entries back to a mark *)
  mutable journal_len : int;
}

(* Journal entry kinds.  An FU entry also charged an issue slot and the
   cluster load; an issue entry charged both of those; a bus entry
   charged the transfer's occupancy window starting at its slot. *)
let k_int = 0
let k_fp = 1
let k_mem = 2
let k_issue = 3
let k_bus = 4
let n_kinds = 5

let per_cluster (cfg : Config.t) ~ii =
  Array.init cfg.Config.n_clusters (fun _ -> Array.make ii 0)

let create (cfg : Config.t) ~ii =
  if ii < 1 then invalid_arg "Mrt.create: ii < 1";
  {
    cfg;
    ii;
    int_used = per_cluster cfg ~ii;
    fp_used = per_cluster cfg ~ii;
    mem_used = per_cluster cfg ~ii;
    issue_used = per_cluster cfg ~ii;
    bus_used = Array.make ii 0;
    loads = Array.make cfg.Config.n_clusters 0;
    journal = Array.make 64 0;
    journal_len = 0;
  }

let slot t cycle =
  let m = cycle mod t.ii in
  if m < 0 then m + t.ii else m

let push t ~kind ~cluster ~slot =
  if t.journal_len = Array.length t.journal then begin
    let bigger = Array.make (2 * t.journal_len) 0 in
    Array.blit t.journal 0 bigger 0 t.journal_len;
    t.journal <- bigger
  end;
  t.journal.(t.journal_len) <-
    (((slot * t.cfg.Config.n_clusters) + cluster) * n_kinds) + kind;
  t.journal_len <- t.journal_len + 1

let fu_table t = function
  | Opcode.Int_fu -> t.int_used
  | Opcode.Fp_fu -> t.fp_used
  | Opcode.Mem_fu -> t.mem_used

let fu_limit t = function
  | Opcode.Int_fu -> t.cfg.Config.int_fus_per_cluster
  | Opcode.Fp_fu -> t.cfg.Config.fp_fus_per_cluster
  | Opcode.Mem_fu -> t.cfg.Config.mem_fus_per_cluster

let fu_kind = function
  | Opcode.Int_fu -> k_int
  | Opcode.Fp_fu -> k_fp
  | Opcode.Mem_fu -> k_mem

let fu_free t ~cluster ~fu ~cycle =
  let c = slot t cycle in
  (fu_table t fu).(cluster).(c) < fu_limit t fu
  && t.issue_used.(cluster).(c) < t.cfg.Config.issue_width_per_cluster

let reserve_fu t ~cluster ~fu ~cycle =
  if not (fu_free t ~cluster ~fu ~cycle) then
    invalid_arg "Mrt.reserve_fu: slot not free";
  let c = slot t cycle in
  let table = fu_table t fu in
  table.(cluster).(c) <- table.(cluster).(c) + 1;
  t.issue_used.(cluster).(c) <- t.issue_used.(cluster).(c) + 1;
  t.loads.(cluster) <- t.loads.(cluster) + 1;
  push t ~kind:(fu_kind fu) ~cluster ~slot:c

let issue_free t ~cluster ~cycle =
  let c = slot t cycle in
  t.issue_used.(cluster).(c) < t.cfg.Config.issue_width_per_cluster

let reserve_issue t ~cluster ~cycle =
  if not (issue_free t ~cluster ~cycle) then
    invalid_arg "Mrt.reserve_issue: no slot free";
  let c = slot t cycle in
  t.issue_used.(cluster).(c) <- t.issue_used.(cluster).(c) + 1;
  t.loads.(cluster) <- t.loads.(cluster) + 1;
  push t ~kind:k_issue ~cluster ~slot:c

(* Buses run at half frequency: a transfer starting at cycle c holds a
   bus during c .. c+occupancy-1.  With II < occupancy the window wraps
   and charges a slot more than once — that is correct: successive
   iterations' transfers are simultaneously in flight and alternate over
   the [n_reg_buses] physical buses, so per-slot usage is bounded by the
   bus count.  Only the first min(occupancy, II) window positions are
   distinct slots: with q = occupancy / II and r = occupancy mod II,
   positions 0 .. r-1 are charged q + 1 and the rest q. *)
let bus_positions t = min t.cfg.Config.bus_occupancy t.ii

let bus_charge t k =
  let occ = t.cfg.Config.bus_occupancy in
  if k < occ mod t.ii then (occ / t.ii) + 1 else occ / t.ii

(* Per-domain count of bus-window rejections, read as a delta around
   each unroll candidate's scheduling and summed over a compile's
   candidates (see Pipeline.compile_shared).  [reg_bus_free] is the only
   consumer of [n_reg_buses] in the entire compilation pipeline, so a
   compile whose sum is zero never branched on the bus count anywhere
   in its search — the design-space sweep's provably-safe condition for
   skipping higher bus counts.  The counter is monotonic and never
   rolled back by [restore]: a rejection is a search event, not
   reservation state. *)
let bus_rejections_key = Domain.DLS.new_key (fun () -> ref 0)
let bus_rejections () = !(Domain.DLS.get bus_rejections_key)

let reg_bus_free t ~cycle =
  let limit = t.cfg.Config.n_reg_buses and s0 = slot t cycle in
  let ok = ref true and k = ref 0 in
  while !ok && !k < bus_positions t do
    if t.bus_used.((s0 + !k) mod t.ii) + bus_charge t !k > limit then
      ok := false;
    incr k
  done;
  if not !ok then incr (Domain.DLS.get bus_rejections_key);
  !ok

(* Add [sign] times a transfer's window charges, starting at [slot]. *)
let charge_bus t ~slot:s ~sign =
  for k = 0 to bus_positions t - 1 do
    let s = (s + k) mod t.ii in
    t.bus_used.(s) <- t.bus_used.(s) + (sign * bus_charge t k)
  done

let reserve_reg_bus t ~cycle =
  if not (reg_bus_free t ~cycle) then
    invalid_arg "Mrt.reserve_reg_bus: no bus free";
  let s = slot t cycle in
  charge_bus t ~slot:s ~sign:1;
  push t ~kind:k_bus ~cluster:0 ~slot:s

let cluster_load t c = t.loads.(c)

type snapshot = int

let snapshot t = t.journal_len

let restore t mark =
  if mark < 0 || mark > t.journal_len then
    invalid_arg "Mrt.restore: mark beyond the journal";
  let n_clusters = t.cfg.Config.n_clusters in
  while t.journal_len > mark do
    t.journal_len <- t.journal_len - 1;
    let e = t.journal.(t.journal_len) in
    let kind = e mod n_kinds and rest = e / n_kinds in
    let cluster = rest mod n_clusters and s = rest / n_clusters in
    if kind = k_bus then charge_bus t ~slot:s ~sign:(-1)
    else begin
      if kind <> k_issue then begin
        let table =
          if kind = k_int then t.int_used
          else if kind = k_fp then t.fp_used
          else t.mem_used
        in
        table.(cluster).(s) <- table.(cluster).(s) - 1
      end;
      t.issue_used.(cluster).(s) <- t.issue_used.(cluster).(s) - 1;
      t.loads.(cluster) <- t.loads.(cluster) - 1
    end
  done

(* Undoing the whole journal leaves every counter at zero, so a new II
   that fits the arrays only needs the new modulus; a larger one gets
   fresh arrays. *)
let reset t ~ii =
  if ii < 1 then invalid_arg "Mrt.reset: ii < 1";
  restore t 0;
  if ii > Array.length t.bus_used then begin
    t.int_used <- per_cluster t.cfg ~ii;
    t.fp_used <- per_cluster t.cfg ~ii;
    t.mem_used <- per_cluster t.cfg ~ii;
    t.issue_used <- per_cluster t.cfg ~ii;
    t.bus_used <- Array.make ii 0
  end;
  t.ii <- ii
