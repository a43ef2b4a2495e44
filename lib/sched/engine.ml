module Config = Vliw_arch.Config
module Ddg = Vliw_ir.Ddg
module Edge = Vliw_ir.Edge
module Opcode = Vliw_ir.Opcode
module Operation = Vliw_ir.Operation

type choice = Free | Forced of int

type hooks = {
  reset : unit -> unit;
  choice : int -> choice;
  on_scheduled : op:int -> cluster:int -> unit;
}

let default_hooks =
  { reset = ignore; choice = (fun _ -> Free); on_scheduled = (fun ~op:_ ~cluster:_ -> ()) }

(* State of one II attempt. *)
type attempt = {
  cfg : Config.t;
  ddg : Ddg.t;
  latency : int -> int;
  ii : int;
  mrt : Mrt.t;
  start : int array;  (* may be negative until normalization *)
  cluster : int array;  (* -1 = unscheduled *)
  mutable copies : Schedule.copy list;
  copy_times : int list array;
      (* start cycles of the copies of [src_op] into [to_cluster], at
         [src_op * n_clusters + to_cluster] *)
  mem_component : int array;  (* -1 for non-memory ops *)
  component_cluster : int array;  (* -1 = not yet pinned *)
}

(* Memory-dependence components (the paper's chains): all their members
   must share a cluster, and two members may only be connected through a
   yet-unscheduled third, so the grouping must be known up-front — an
   edge-wise check can wedge the middle operation forever. *)
let memory_components ddg =
  let n = Ddg.n_ops ddg in
  let parent = Array.init n (fun i -> i) in
  let rec find i = if parent.(i) = i then i else find parent.(i) in
  List.iter
    (fun (e : Edge.t) ->
      if Edge.is_memory_kind e.kind then begin
        let a = find e.src and b = find e.dst in
        if a <> b then parent.(a) <- b
      end)
    (Ddg.edges ddg);
  let comp = Array.make n (-1) in
  let next = ref 0 in
  let root_ids = Hashtbl.create 8 in
  for i = 0 to n - 1 do
    if Operation.is_memory (Ddg.op ddg i) then begin
      let r = find i in
      let c =
        match Hashtbl.find_opt root_ids r with
        | Some c -> c
        | None ->
            let c = !next in
            incr next;
            Hashtbl.add root_ids r c;
            c
      in
      comp.(i) <- c
    end
  done;
  (comp, !next)

let scheduled a v = a.cluster.(v) >= 0

let copy_key a ~src ~to_cluster = (src * a.cfg.Config.n_clusters) + to_cluster
let existing_copies a ~src ~to_cluster = a.copy_times.(copy_key a ~src ~to_cluster)

let record_copy a (cp : Schedule.copy) =
  a.copies <- cp :: a.copies;
  let key = copy_key a ~src:cp.src_op ~to_cluster:cp.to_cluster in
  a.copy_times.(key) <- cp.start :: a.copy_times.(key)

(* Earliest start of [v] in cluster [c] given its scheduled predecessors. *)
let window a v c =
  let copy_lat = a.cfg.Config.reg_copy_latency in
  let estart = ref 0
  and lstart = ref max_int
  and has_pred = ref false
  and has_succ = ref false in
  List.iter
    (fun (e : Edge.t) ->
      let u = e.src in
      if scheduled a u then begin
        let cross = a.cluster.(u) <> c in
        match e.kind with
        | Edge.Reg_anti | Edge.Reg_out when cross -> ()
        | _ ->
            has_pred := true;
            let shift = a.ii * e.distance in
            let base =
              if e.kind = Edge.Reg_flow && cross then begin
                let via_new = a.start.(u) + a.latency u + copy_lat - shift in
                List.fold_left
                  (fun acc s -> min acc (s + copy_lat - shift))
                  via_new
                  (existing_copies a ~src:u ~to_cluster:c)
              end
              else a.start.(u) + Ddg.effective_latency ~latency:a.latency e - shift
            in
            if base > !estart then estart := base
      end)
    (Ddg.preds a.ddg v);
  List.iter
    (fun (e : Edge.t) ->
      let w = e.dst in
      if w <> v && scheduled a w then begin
        let cross = a.cluster.(w) <> c in
        match e.kind with
        | Edge.Reg_anti | Edge.Reg_out when cross -> ()
        | _ ->
            has_succ := true;
            let shift = a.ii * e.distance in
            let bound =
              if e.kind = Edge.Reg_flow && cross then
                a.start.(w) + shift - copy_lat - a.latency v
              else a.start.(w) - Ddg.effective_latency ~latency:a.latency e + shift
            in
            if bound < !lstart then lstart := bound
      end)
    (Ddg.succs a.ddg v);
  (* Start cycles may be negative: the flat schedule is normalized by a
     multiple of the II once the attempt succeeds. *)
  (!estart, !lstart, !has_pred, !has_succ)

(* Find and reserve a copy slot on [from_cluster] in [earliest..latest]. *)
let reserve_copy_slot a ~from_cluster ~earliest ~latest =
  let rec scan s =
    if s > latest then None
    else if
      Mrt.issue_free a.mrt ~cluster:from_cluster ~cycle:s
      && Mrt.reg_bus_free a.mrt ~cycle:s
    then begin
      Mrt.reserve_issue a.mrt ~cluster:from_cluster ~cycle:s;
      Mrt.reserve_reg_bus a.mrt ~cycle:s;
      Some s
    end
    else scan (s + 1)
  in
  if earliest > latest then None else scan earliest

exception Placement_failed

(* Try to place [v] in cluster [c] at cycle [t]; returns the copies to
   commit.  The MRT is mutated; the caller restores it on failure. *)
let try_place a v c t =
  let copy_lat = a.cfg.Config.reg_copy_latency in
  let o = Ddg.op a.ddg v in
  let fu = Opcode.fu_class o.Operation.opcode in
  if not (Mrt.fu_free a.mrt ~cluster:c ~fu ~cycle:t) then raise Placement_failed;
  let new_copies = ref [] in
  (* Copies feeding v from cross-cluster predecessors. *)
  List.iter
    (fun (e : Edge.t) ->
      let u = e.src in
      if scheduled a u && e.kind = Edge.Reg_flow && a.cluster.(u) <> c then begin
        let shift = a.ii * e.distance in
        let deadline = t + shift - copy_lat in
        let reusable ss =
          List.exists (fun s -> s + copy_lat - shift <= t) ss
        in
        let planned =
          List.exists
            (fun cp ->
              cp.Schedule.src_op = u && cp.Schedule.to_cluster = c
              && cp.Schedule.start <= deadline)
            !new_copies
        in
        if not (reusable (existing_copies a ~src:u ~to_cluster:c) || planned)
        then
          match
            reserve_copy_slot a ~from_cluster:a.cluster.(u)
              ~earliest:(a.start.(u) + a.latency u)
              ~latest:deadline
          with
          | Some s ->
              new_copies :=
                { Schedule.src_op = u; from_cluster = a.cluster.(u);
                  to_cluster = c; start = s }
                :: !new_copies
          | None -> raise Placement_failed
      end)
    (Ddg.preds a.ddg v);
  (* Copies from v to already-scheduled cross-cluster consumers: one per
     destination cluster, placed to meet the tightest consumer. *)
  let dest_deadlines = Hashtbl.create 4 in
  List.iter
    (fun (e : Edge.t) ->
      let w = e.dst in
      if w <> v && scheduled a w && e.kind = Edge.Reg_flow && a.cluster.(w) <> c
      then begin
        let deadline = a.start.(w) + (a.ii * e.distance) - copy_lat in
        let cw = a.cluster.(w) in
        let cur =
          Option.value ~default:max_int (Hashtbl.find_opt dest_deadlines cw)
        in
        Hashtbl.replace dest_deadlines cw (min cur deadline)
      end)
    (Ddg.succs a.ddg v);
  Hashtbl.iter
    (fun dest deadline ->
      match
        reserve_copy_slot a ~from_cluster:c ~earliest:(t + a.latency v)
          ~latest:deadline
      with
      | Some s ->
          new_copies :=
            { Schedule.src_op = v; from_cluster = c; to_cluster = dest;
              start = s }
            :: !new_copies
      | None -> raise Placement_failed)
    dest_deadlines;
  (* A copy reserved above may have taken the issue slot that was free
     on entry; re-check before committing. *)
  if not (Mrt.fu_free a.mrt ~cluster:c ~fu ~cycle:t) then
    raise Placement_failed;
  Mrt.reserve_fu a.mrt ~cluster:c ~fu ~cycle:t;
  !new_copies

(* Members of a memory-dependence component must share the cluster; the
   component is pinned by its first scheduled member. *)
let mem_cluster_ok a v c =
  let comp = a.mem_component.(v) in
  comp < 0
  || a.component_cluster.(comp) < 0
  || a.component_cluster.(comp) = c

let comm_cost a v c =
  let cost = ref 0 in
  List.iter
    (fun (e : Edge.t) ->
      if
        e.kind = Edge.Reg_flow && scheduled a e.src && a.cluster.(e.src) <> c
        && existing_copies a ~src:e.src ~to_cluster:c = []
      then incr cost)
    (Ddg.preds a.ddg v);
  List.iter
    (fun (e : Edge.t) ->
      if
        e.kind = Edge.Reg_flow && e.dst <> v && scheduled a e.dst
        && a.cluster.(e.dst) <> c
      then incr cost)
    (Ddg.succs a.ddg v);
  !cost

let candidate_clusters a hooks v ~allow_cross_cluster_mem =
  let all = List.init a.cfg.Config.n_clusters (fun c -> c) in
  let feasible c = allow_cross_cluster_mem || mem_cluster_ok a v c in
  match hooks.choice v with
  | Forced c -> if feasible c then [ c ] else []
  | Free ->
      all
      |> List.filter feasible
      |> List.map (fun c -> (comm_cost a v c, Mrt.cluster_load a.mrt c, c))
      |> List.sort (fun (cost1, load1, c1) (cost2, load2, c2) ->
             if cost1 <> cost2 then Int.compare cost1 cost2
             else if load1 <> load2 then Int.compare load1 load2
             else Int.compare c1 c2)
      |> List.map (fun (_, _, c) -> c)

(* Probe up to [count] cycles starting at [first], stepping by [step]
   (+1 ascending from estart, -1 descending from lstart).  Iterating the
   window directly — rather than materializing a [List.init ii] list per
   operation per II attempt — keeps the scheduler's hottest loop
   allocation-free, and a failed probe undoes only the reservations it
   made (back to one journal mark). *)
let try_cycles a v c ~first ~count ~step =
  let mark = Mrt.snapshot a.mrt in
  let rec loop i t =
    if i >= count then false
    else
      match try_place a v c t with
      | new_copies ->
          a.start.(v) <- t;
          a.cluster.(v) <- c;
          let comp = a.mem_component.(v) in
          if comp >= 0 && a.component_cluster.(comp) < 0 then
            a.component_cluster.(comp) <- c;
          List.iter (record_copy a) new_copies;
          true
      | exception Placement_failed ->
          Mrt.restore a.mrt mark;
          loop (i + 1) (t + step)
  in
  loop 0 first

let attempt cfg ddg ~latency ~order_base ~components ~hooks
    ~allow_cross_cluster_mem ~hoisted ~ii =
  hooks.reset ();
  let n = Ddg.n_ops ddg in
  let mem_component, n_components = components in
  let mrt = Mrt.create cfg ~ii in
  let a =
    {
      cfg;
      ddg;
      latency;
      ii;
      mrt;
      start = Array.make n 0;
      cluster = Array.make n (-1);
      copies = [];
      copy_times = Array.make (n * cfg.Config.n_clusters) [];
      mem_component;
      component_cluster = Array.make (max 1 n_components) (-1);
    }
  in
  let order =
    (* Wedge recovery: nodes a previous same-II attempt could not place
       are hoisted to the front, where their window is unconstrained.
       The base ordering only depends on the II, so [try_ii] computes it
       once and shares it across hoist retries. *)
    if hoisted = [] then order_base
    else hoisted @ List.filter (fun v -> not (List.mem v hoisted)) order_base
  in
  let place v =
    let clusters = candidate_clusters a hooks v ~allow_cross_cluster_mem in
    List.exists
      (fun c ->
        let estart, lstart, has_pred, has_succ = window a v c in
        match (has_pred, has_succ) with
        | _, false -> try_cycles a v c ~first:estart ~count:ii ~step:1
        | false, true -> try_cycles a v c ~first:lstart ~count:ii ~step:(-1)
        | true, true ->
            let hi = min lstart (estart + ii - 1) in
            if hi < estart then false
            else
              try_cycles a v c ~first:estart ~count:(hi - estart + 1) ~step:1)
      clusters
  in
  let failed = ref None in
  let ok =
    List.for_all
      (fun v ->
        let placed = place v in
        if placed then hooks.on_scheduled ~op:v ~cluster:a.cluster.(v)
        else failed := Some v;
        placed)
      order
  in
  if not ok then Error !failed
  else begin
    (* Normalize: shift everything by a multiple of the II so the
       earliest issue (operation or copy) lands in [0, II). *)
    let earliest =
      List.fold_left
        (fun acc (cp : Schedule.copy) -> min acc cp.Schedule.start)
        (Array.fold_left min max_int a.start)
        a.copies
    in
    let shift =
      if earliest >= 0 then 0 else (((-earliest) + ii - 1) / ii) * ii
    in
    Ok
      {
        Schedule.ii;
        n_clusters = cfg.Config.n_clusters;
        cluster = a.cluster;
        start = Array.map (fun s -> s + shift) a.start;
        copies =
          List.rev_map
            (fun (cp : Schedule.copy) ->
              { cp with Schedule.start = cp.Schedule.start + shift })
            a.copies
          |> List.rev;
      }
  end

let max_hoist_retries = 16

(* Guaranteed fallback: a sequential schedule.  Every operation gets its
   own window of L cycles in topological order of the zero-distance
   subgraph (acyclic for any feasible loop), so every dependence holds
   with room for one cross-cluster copy per consumer cluster; II is
   n * L.  Only used when the greedy search exhausts its default budget
   on pathological graphs — never by the benchmark suite. *)
let sequential cfg ddg ~latency ~hooks ~allow_cross_cluster_mem =
  hooks.reset ();
  let n = Ddg.n_ops ddg in
  let mem_component, n_components = memory_components ddg in
  let component_cluster = Array.make (max 1 n_components) (-1) in
  (* Kahn's topological sort over distance-0 edges. *)
  let indegree = Array.make n 0 in
  List.iter
    (fun (e : Edge.t) ->
      if e.distance = 0 then indegree.(e.dst) <- indegree.(e.dst) + 1)
    (Ddg.edges ddg);
  let queue = Queue.create () in
  for v = 0 to n - 1 do
    if indegree.(v) = 0 then Queue.add v queue
  done;
  let order = ref [] and seen = ref 0 in
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    order := v :: !order;
    incr seen;
    List.iter
      (fun (e : Edge.t) ->
        if e.distance = 0 then begin
          indegree.(e.dst) <- indegree.(e.dst) - 1;
          if indegree.(e.dst) = 0 then Queue.add e.dst queue
        end)
      (Ddg.succs ddg v)
  done;
  if !seen < n then None (* zero-distance cycle: genuinely infeasible *)
  else begin
    let order = List.rev !order in
    let max_lat =
      List.fold_left (fun acc v -> max acc (latency v)) 1 order
    in
    let l = max_lat + cfg.Config.reg_copy_latency + cfg.Config.n_clusters + 2 in
    let ii = n * l in
    let start = Array.make n 0 and cluster = Array.make n 0 in
    let copies = ref [] in
    List.iteri
      (fun idx v ->
        start.(v) <- idx * l;
        let c =
          match hooks.choice v with
          | Forced c -> c
          | Free ->
              let comp = mem_component.(v) in
              if (not allow_cross_cluster_mem) && comp >= 0
                 && component_cluster.(comp) >= 0
              then component_cluster.(comp)
              else 0
        in
        cluster.(v) <- c;
        let comp = mem_component.(v) in
        if comp >= 0 && component_cluster.(comp) < 0 then
          component_cluster.(comp) <- c;
        hooks.on_scheduled ~op:v ~cluster:c)
      order;
    (* One copy per (producer, consumer-cluster) pair, staggered inside
       the producer's window so no two copies share a bus cycle. *)
    let emitted = Hashtbl.create 8 in
    List.iter
      (fun (e : Edge.t) ->
        if e.kind = Edge.Reg_flow && cluster.(e.src) <> cluster.(e.dst) then begin
          let key = (e.src, cluster.(e.dst)) in
          if not (Hashtbl.mem emitted key) then begin
            Hashtbl.add emitted key ();
            copies :=
              {
                Schedule.src_op = e.src;
                from_cluster = cluster.(e.src);
                to_cluster = cluster.(e.dst);
                start = start.(e.src) + latency e.src + cluster.(e.dst);
              }
              :: !copies
          end
        end)
      (Ddg.edges ddg);
    Some
      {
        Schedule.ii;
        n_clusters = cfg.Config.n_clusters;
        cluster;
        start;
        copies = List.rev !copies;
      }
  end

let schedule cfg ddg ~latency ?(hooks = default_hooks)
    ?(allow_cross_cluster_mem = false) () =
  (* [prepare] already solved every recurrence's II, so the MII needs no
     second SCC and RecMII pass. *)
  let prepared = Ordering.prepare ddg ~latency in
  let mii = max (Resources.res_mii cfg ddg) (Ordering.rec_mii prepared) in
  let hi = (4 * mii) + 64 in
  let components = memory_components ddg in
  let try_ii ii =
    (* The greedy pass can wedge on the node that closes a recurrence (a
       node scheduled after both its predecessors and successors, whose
       zero-distance window came out empty).  Re-running the same II
       with the wedged node placed first resolves this without
       backtracking inside an attempt. *)
    let order_base = Ordering.ordered prepared ddg ~latency ~ii in
    let rec retry hoisted k =
      match
        attempt cfg ddg ~latency ~order_base ~components ~hooks
          ~allow_cross_cluster_mem ~hoisted ~ii
      with
      | Ok s -> Some s
      | Error (Some v) when k < max_hoist_retries && not (List.mem v hoisted)
        ->
          retry (v :: hoisted) (k + 1)
      | Error _ -> None
    in
    retry [] 0
  in
  let rec loop ii =
    if ii > hi then
      (* Search budget exhausted: fall back to the guaranteed sequential
         schedule rather than fail. *)
      sequential cfg ddg ~latency ~hooks ~allow_cross_cluster_mem
    else match try_ii ii with Some s -> Some s | None -> loop (ii + 1)
  in
  loop (max 1 mii)
