module Config = Vliw_arch.Config
module Ddg = Vliw_ir.Ddg
module Edge = Vliw_ir.Edge
module Opcode = Vliw_ir.Opcode
module Operation = Vliw_ir.Operation
module Schedule = Vliw_sched.Schedule
module Regpressure = Vliw_sched.Regpressure
module D = Diagnostic

(* Registers per cluster. *)
let reg_limit = 64

let check_range cfg ddg ~where (t : Schedule.t) =
  let n = Ddg.n_ops ddg in
  let diags = ref [] in
  let add d = diags := d :: !diags in
  if t.Schedule.ii < 1 then
    add (D.error ~pass:"sched/range" ~where "II %d < 1" t.Schedule.ii);
  if t.Schedule.n_clusters <> cfg.Config.n_clusters then
    add
      (D.error ~pass:"sched/range" ~where
         "schedule built for %d clusters on a %d-cluster machine"
         t.Schedule.n_clusters cfg.Config.n_clusters);
  if Array.length t.Schedule.cluster <> n || Array.length t.Schedule.start <> n
  then
    add
      (D.error ~pass:"sched/range" ~where
         "placement arrays sized %d/%d for a %d-operation DDG"
         (Array.length t.Schedule.cluster)
         (Array.length t.Schedule.start)
         n)
  else
    for v = 0 to n - 1 do
      let w = Printf.sprintf "%s/n%d" where v in
      if t.Schedule.start.(v) < 0 then
        add
          (D.error ~pass:"sched/range" ~where:w "start cycle %d < 0"
             t.Schedule.start.(v));
      if t.Schedule.cluster.(v) < 0 || t.Schedule.cluster.(v) >= cfg.Config.n_clusters
      then
        add
          (D.error ~pass:"sched/range" ~where:w "cluster %d outside [0, %d)"
             t.Schedule.cluster.(v) cfg.Config.n_clusters)
    done;
  List.rev !diags

let check_dependences ddg ~latency ~allow_cross_cluster_mem ~where
    (t : Schedule.t) =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  List.iter
    (fun (e : Edge.t) ->
      let w =
        Printf.sprintf "%s/edge n%d->n%d(%s,d%d)" where e.src e.dst
          (Edge.kind_to_string e.kind) e.distance
      in
      let ts = t.Schedule.start.(e.src) and td = t.Schedule.start.(e.dst) in
      let cs = t.Schedule.cluster.(e.src) and cd = t.Schedule.cluster.(e.dst) in
      let lat = Ddg.effective_latency ~latency e in
      let slack = td - ts - lat + (t.Schedule.ii * e.distance) in
      match e.kind with
      | Edge.Reg_flow when cs <> cd -> () (* the copy-coverage pass *)
      | (Edge.Reg_anti | Edge.Reg_out) when cs <> cd -> ()
      | (Edge.Mem_flow | Edge.Mem_anti | Edge.Mem_out | Edge.Mem_unresolved)
        when cs <> cd ->
          if not allow_cross_cluster_mem then
            add
              (D.error ~pass:"sched/mem-colocate" ~where:w
                 "memory-dependent operations split over clusters %d/%d" cs cd)
          else if slack < 0 then
            add
              (D.error ~pass:"sched/dependence" ~where:w
                 "violated modulo II=%d (slack %d)" t.Schedule.ii slack)
      | _ ->
          if slack < 0 then
            add
              (D.error ~pass:"sched/dependence" ~where:w
                 "violated modulo II=%d (slack %d)" t.Schedule.ii slack))
    (Ddg.edges ddg);
  List.rev !diags

let check_copies cfg ddg ~latency ~where (t : Schedule.t) =
  let copy_lat = cfg.Config.reg_copy_latency in
  let diags = ref [] in
  let add d = diags := d :: !diags in
  (* Per-copy sanity. *)
  List.iter
    (fun (cp : Schedule.copy) ->
      let w =
        Printf.sprintf "%s/copy n%d@%d->c%d" where cp.Schedule.src_op
          cp.Schedule.start cp.Schedule.to_cluster
      in
      if cp.Schedule.from_cluster <> t.Schedule.cluster.(cp.Schedule.src_op)
      then
        add
          (D.error ~pass:"sched/copy-cluster" ~where:w
             "copy departs cluster %d but its producer lives in cluster %d"
             cp.Schedule.from_cluster
             t.Schedule.cluster.(cp.Schedule.src_op));
      if cp.Schedule.to_cluster = cp.Schedule.from_cluster then
        add
          (D.error ~pass:"sched/copy-cluster" ~where:w
             "copy to its own cluster %d" cp.Schedule.to_cluster);
      if cp.Schedule.to_cluster < 0
         || cp.Schedule.to_cluster >= cfg.Config.n_clusters
      then
        add
          (D.error ~pass:"sched/copy-cluster" ~where:w
             "destination cluster %d outside [0, %d)" cp.Schedule.to_cluster
             cfg.Config.n_clusters);
      let ready =
        t.Schedule.start.(cp.Schedule.src_op) + latency cp.Schedule.src_op
      in
      if cp.Schedule.start < ready then
        add
          (D.error ~pass:"sched/copy-early" ~where:w
             "issued at %d before the producer's value exists at %d"
             cp.Schedule.start ready);
      (* Orphan: no cross-cluster register consumer in its destination. *)
      let feeds_someone =
        List.exists
          (fun (e : Edge.t) ->
            e.kind = Edge.Reg_flow
            && t.Schedule.cluster.(e.dst) = cp.Schedule.to_cluster
            && t.Schedule.cluster.(e.dst)
               <> t.Schedule.cluster.(cp.Schedule.src_op))
          (Ddg.succs ddg cp.Schedule.src_op)
      in
      if not feeds_someone then
        add
          (D.warn ~pass:"sched/orphan-copy" ~where:w
             "no consumer in cluster %d reads this copy"
             cp.Schedule.to_cluster))
    t.Schedule.copies;
  (* Coverage: every cross-cluster register consumer served by a timely
     copy — and how many serve it. *)
  List.iter
    (fun (e : Edge.t) ->
      if e.kind = Edge.Reg_flow then begin
        let cs = t.Schedule.cluster.(e.src)
        and cd = t.Schedule.cluster.(e.dst) in
        if cs <> cd then begin
          let ts = t.Schedule.start.(e.src)
          and td = t.Schedule.start.(e.dst) in
          let timely =
            List.filter
              (fun (cp : Schedule.copy) ->
                cp.Schedule.src_op = e.src
                && cp.Schedule.to_cluster = cd
                && cp.Schedule.start >= ts + latency e.src
                && td >= cp.Schedule.start + copy_lat - (t.Schedule.ii * e.distance))
              t.Schedule.copies
          in
          let w =
            Printf.sprintf "%s/edge n%d->n%d(flow,d%d)" where e.src e.dst
              e.distance
          in
          match timely with
          | [] ->
              add
                (D.error ~pass:"sched/copy-coverage" ~where:w
                   "cross-cluster consumer (clusters %d->%d) reached by no \
                    timely copy"
                   cs cd)
          | [ _ ] -> ()
          | several ->
              add
                (D.info ~pass:"sched/ambiguous-copy" ~where:w
                   "consumer reached by %d timely copies of the same value"
                   (List.length several))
        end
      end)
    (Ddg.edges ddg);
  List.rev !diags

(* Resource re-derivation — deliberately without {!Vliw_sched.Mrt}: flat
   count tables rebuilt from the placement and copy list alone. *)
let check_resources cfg ddg ~where (t : Schedule.t) =
  let ii = t.Schedule.ii in
  let n_cl = cfg.Config.n_clusters in
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let fu = Array.init 3 (fun _ -> Array.make_matrix n_cl ii 0) in
  let issue = Array.make_matrix n_cl ii 0 in
  let class_index = function
    | Opcode.Int_fu -> 0
    | Opcode.Fp_fu -> 1
    | Opcode.Mem_fu -> 2
  in
  Array.iter
    (fun (o : Operation.t) ->
      let v = o.Operation.id in
      let c = t.Schedule.cluster.(v)
      and s = t.Schedule.start.(v) mod ii in
      let k = class_index (Opcode.fu_class o.Operation.opcode) in
      fu.(k).(c).(s) <- fu.(k).(c).(s) + 1;
      issue.(c).(s) <- issue.(c).(s) + 1)
    (Ddg.ops ddg);
  List.iter
    (fun (cp : Schedule.copy) ->
      let s = cp.Schedule.start mod ii in
      issue.(cp.Schedule.from_cluster).(s) <-
        issue.(cp.Schedule.from_cluster).(s) + 1)
    t.Schedule.copies;
  let limits =
    [|
      ("integer", cfg.Config.int_fus_per_cluster);
      ("floating-point", cfg.Config.fp_fus_per_cluster);
      ("memory", cfg.Config.mem_fus_per_cluster);
    |]
  in
  for c = 0 to n_cl - 1 do
    for s = 0 to ii - 1 do
      let w = Printf.sprintf "%s/cluster%d.cycle%d" where c s in
      Array.iteri
        (fun k (name, limit) ->
          if fu.(k).(c).(s) > limit then
            add
              (D.error ~pass:"sched/fu-capacity" ~where:w
                 "%d %s operations in a slot with %d %s FU(s)" fu.(k).(c).(s)
                 name limit name))
        limits;
      if issue.(c).(s) > cfg.Config.issue_width_per_cluster then
        add
          (D.error ~pass:"sched/issue-width" ~where:w
             "%d issues (copies included) exceed the %d-wide issue slot"
             issue.(c).(s) cfg.Config.issue_width_per_cluster)
    done
  done;
  (* Half-frequency register buses: a transfer starting at cycle c holds
     a bus during c .. c+occupancy-1; with II < occupancy the window
     wraps and charges a slot more than once (successive iterations'
     transfers are in flight simultaneously). *)
  let bus = Array.make ii 0 in
  List.iter
    (fun (cp : Schedule.copy) ->
      for k = 0 to cfg.Config.bus_occupancy - 1 do
        let s = (cp.Schedule.start + k) mod ii in
        bus.(s) <- bus.(s) + 1
      done)
    t.Schedule.copies;
  Array.iteri
    (fun s u ->
      if u > cfg.Config.n_reg_buses then
        add
          (D.error ~pass:"sched/bus-capacity" ~where:(Printf.sprintf "%s/cycle%d" where s)
             "%d concurrent transfers on %d half-frequency register buses" u
             cfg.Config.n_reg_buses))
    bus;
  List.rev !diags

let check_lifetimes ddg ~latency ~where (t : Schedule.t) =
  let ii = t.Schedule.ii in
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let n = Ddg.n_ops ddg in
  for u = 0 to n - 1 do
    let last_use = ref min_int in
    List.iter
      (fun (e : Edge.t) ->
        if e.kind = Edge.Reg_flow
           && t.Schedule.cluster.(e.dst) = t.Schedule.cluster.(u)
        then
          last_use :=
            max !last_use (t.Schedule.start.(e.dst) + (ii * e.distance)))
      (Ddg.succs ddg u);
    List.iter
      (fun (cp : Schedule.copy) ->
        if cp.Schedule.src_op = u then
          last_use := max !last_use cp.Schedule.start)
      t.Schedule.copies;
    if !last_use > min_int then begin
      let len = !last_use - t.Schedule.start.(u) in
      if len > ii then
        add
          (D.info ~pass:"sched/lifetime" ~where:(Printf.sprintf "%s/n%d" where u)
             "value lives %d cycles > II=%d: %d iteration instances \
              overlap (modulo expansion assumed)"
             len ii
             (((len - 1) / ii) + 1))
    end
  done;
  let pressure = Regpressure.max_live ddg ~latency t in
  Array.iteri
    (fun c live ->
      if live > reg_limit then
        add
          (D.warn ~pass:"sched/regpressure" ~where:(Printf.sprintf "%s/cluster%d" where c)
             "MaxLive %d exceeds the %d-register budget" live reg_limit))
    pressure;
  List.rev !diags

let verify cfg ddg ~latency ?(allow_cross_cluster_mem = false)
    ?(where = "sched") (t : Schedule.t) =
  let range = check_range cfg ddg ~where t in
  if D.has_errors range then range
  else
    let validate =
      match
        Schedule.validate cfg ddg ~latency ~allow_cross_cluster_mem t
      with
      | Ok () -> []
      | Error msg -> [ D.error ~pass:"sched/validate" ~where "%s" msg ]
    in
    range @ validate
    @ check_dependences ddg ~latency ~allow_cross_cluster_mem ~where t
    @ check_copies cfg ddg ~latency ~where t
    @ check_resources cfg ddg ~where t
    @ check_lifetimes ddg ~latency ~where t
