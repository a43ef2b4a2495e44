module Config = Vliw_arch.Config
module Ddg = Vliw_ir.Ddg
module Edge = Vliw_ir.Edge
module Opcode = Vliw_ir.Opcode
module Operation = Vliw_ir.Operation

type copy = {
  src_op : int;
  from_cluster : int;
  to_cluster : int;
  start : int;
}

type t = {
  ii : int;
  n_clusters : int;
  cluster : int array;
  start : int array;
  copies : copy list;
}

let stage_count t = (Array.fold_left max 0 t.start / t.ii) + 1
let n_copies t = List.length t.copies

let ops_in_cluster t c =
  Array.fold_left (fun acc cl -> if cl = c then acc + 1 else acc) 0 t.cluster

let copies_from t c =
  List.fold_left
    (fun acc cp -> if cp.from_cluster = c then acc + 1 else acc)
    0 t.copies

let cluster_fu_usage ddg t ~cluster ~fu =
  Array.fold_left
    (fun acc (o : Operation.t) ->
      if
        t.cluster.(o.Operation.id) = cluster
        && Opcode.fu_class o.Operation.opcode = fu
      then acc + 1
      else acc)
    0 (Ddg.ops ddg)

let workload_balance t =
  let counts = Array.make t.n_clusters 0 in
  Array.iter (fun c -> counts.(c) <- counts.(c) + 1) t.cluster;
  List.iter
    (fun cp -> counts.(cp.from_cluster) <- counts.(cp.from_cluster) + 1)
    t.copies;
  let total = Array.fold_left ( + ) 0 counts in
  if total = 0 then 1.0 /. float_of_int t.n_clusters
  else float_of_int (Array.fold_left max 0 counts) /. float_of_int total

let validate cfg ddg ~latency ?(allow_cross_cluster_mem = false) t =
  let ( let* ) = Result.bind in
  let err fmt = Format.kasprintf (fun s -> Error s) fmt in
  let copy_lat = cfg.Config.reg_copy_latency in
  let check_edge acc (e : Edge.t) =
    let* () = acc in
    let ts = t.start.(e.src) and td = t.start.(e.dst) in
    let cs = t.cluster.(e.src) and cd = t.cluster.(e.dst) in
    let lat = Ddg.effective_latency ~latency e in
    let slack = td - ts - lat + (t.ii * e.distance) in
    match e.kind with
    | Edge.Reg_flow when cs <> cd ->
        (* Must be routed through a copy that is itself on time. *)
        let ok =
          List.exists
            (fun cp ->
              cp.src_op = e.src && cp.to_cluster = cd
              && cp.start >= ts + latency e.src
              && td >= cp.start + copy_lat - (t.ii * e.distance))
            t.copies
        in
        if ok then Ok ()
        else err "edge %a: cross-cluster flow without a timely copy" Edge.pp e
    | Edge.Reg_anti | Edge.Reg_out when cs <> cd ->
        (* Different clusters have distinct physical registers. *)
        Ok ()
    | Edge.Mem_flow | Edge.Mem_anti | Edge.Mem_out | Edge.Mem_unresolved
      when cs <> cd ->
        if allow_cross_cluster_mem then
          if slack >= 0 then Ok ()
          else err "edge %a: violated (slack %d)" Edge.pp e slack
        else err "edge %a: memory-dependent operations in clusters %d/%d"
               Edge.pp e cs cd
    | _ ->
        if slack >= 0 then Ok ()
        else err "edge %a: violated (slack %d)" Edge.pp e slack
  in
  let* () = List.fold_left check_edge (Ok ()) (Ddg.edges ddg) in
  (* Resource usage: replay every reservation into a fresh table. *)
  let mrt = Mrt.create cfg ~ii:t.ii in
  let reserve acc ~cluster ~fu ~cycle ~what =
    let* () = acc in
    if Mrt.fu_free mrt ~cluster ~fu ~cycle then begin
      Mrt.reserve_fu mrt ~cluster ~fu ~cycle;
      Ok ()
    end
    else err "%s: FU/issue overflow in cluster %d cycle %d" what cluster cycle
  in
  let* () =
    Array.fold_left
      (fun acc (o : Operation.t) ->
        reserve acc ~cluster:t.cluster.(o.Operation.id)
          ~fu:(Opcode.fu_class o.Operation.opcode)
          ~cycle:t.start.(o.Operation.id)
          ~what:(Format.asprintf "op %a" Operation.pp o))
      (Ok ()) (Ddg.ops ddg)
  in
  let* () =
    List.fold_left
      (fun acc cp ->
        let* () = acc in
        let* () =
          if Mrt.issue_free mrt ~cluster:cp.from_cluster ~cycle:cp.start
          then begin
            Mrt.reserve_issue mrt ~cluster:cp.from_cluster ~cycle:cp.start;
            Ok ()
          end
          else
            err "copy of n%d at %d: issue slots oversubscribed" cp.src_op
              cp.start
        in
        if Mrt.reg_bus_free mrt ~cycle:cp.start then begin
          Mrt.reserve_reg_bus mrt ~cycle:cp.start;
          Ok ()
        end
        else err "copy of n%d at %d: register buses oversubscribed" cp.src_op
               cp.start)
      (Ok ()) t.copies
  in
  let* () =
    Array.fold_left
      (fun acc s ->
        let* () = acc in
        if s >= 0 then Ok () else Error "operation left unscheduled")
      (Ok ()) t.start
  in
  Ok ()

let pp_kernel ddg ppf t =
  let cell = Array.make_matrix t.ii t.n_clusters [] in
  Array.iteri
    (fun v s ->
      let slot = s mod t.ii and stage = s / t.ii in
      let o = Ddg.op ddg v in
      let text =
        Printf.sprintf "%s.n%d%s"
          (Opcode.to_string o.Operation.opcode)
          v
          (if stage > 0 then Printf.sprintf "@%d" stage else "")
      in
      cell.(slot).(t.cluster.(v)) <- text :: cell.(slot).(t.cluster.(v)))
    t.start;
  List.iter
    (fun (cp : copy) ->
      let slot = cp.start mod t.ii and stage = cp.start / t.ii in
      let text =
        Printf.sprintf "cp.n%d>%d%s" cp.src_op cp.to_cluster
          (if stage > 0 then Printf.sprintf "@%d" stage else "")
      in
      cell.(slot).(cp.from_cluster) <- text :: cell.(slot).(cp.from_cluster))
    t.copies;
  let width =
    Array.fold_left
      (fun acc row ->
        Array.fold_left
          (fun acc texts ->
            max acc (String.length (String.concat " " (List.rev texts))))
          acc row)
      8 cell
  in
  Format.fprintf ppf "kernel (II=%d, SC=%d):@." t.ii (stage_count t);
  Format.fprintf ppf "  cyc";
  for c = 0 to t.n_clusters - 1 do
    Format.fprintf ppf " | %-*s" width (Printf.sprintf "cluster %d" c)
  done;
  Format.fprintf ppf "@.";
  Array.iteri
    (fun slot row ->
      Format.fprintf ppf "  %3d" slot;
      Array.iter
        (fun texts ->
          Format.fprintf ppf " | %-*s" width
            (String.concat " " (List.rev texts)))
        row;
      Format.fprintf ppf "@.")
    cell
