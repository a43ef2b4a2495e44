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

(* The order in which one placement reserves the copies from the placed
   operation to its consumer clusters: [copy_bucket] ascending and,
   within a bucket, the destination met first among the successors
   last (on 4 clusters: 2, 3, 0, 1).  It is the order a 16-bucket
   [Hashtbl] of up to 32 destinations visits them in, newest binding
   first, and the order every recorded schedule was made with: any
   other order takes other bus and issue slots, and so changes the
   schedules. *)
let copy_bucket c = Hashtbl.hash c land 15

(* Scheduling state, allocated once per schedule and reset for every II
   attempt.  Besides the placement itself it holds the loop's edges as
   arrays and the scratch of the inner loops — the copies of the
   placement being tried, the candidate clusters and the last
   dependence window — so probing a slot allocates nothing. *)
type state = {
  ddg : Ddg.t;
  latency : int -> int;
  preds : Edge.t array array;
  succs : Edge.t array array;
  nc : int;
  copy_lat : int;
  mutable ii : int;
  mrt : Mrt.t;
  start : int array;  (* may be negative until normalization *)
  cluster : int array;  (* -1 = unscheduled *)
  first_copy : int array;
      (* earliest start cycle of a committed copy of [src_op] into
         [to_cluster], at [src_op * nc + to_cluster]; max_int = none *)
  mem_component : int array;  (* -1 for non-memory ops *)
  component_cluster : int array;  (* -1 = not yet pinned *)
  mutable copies : Schedule.copy list;  (* committed, newest first *)
  pending : int array;
      (* [src; from; to; start] of each copy the placement being tried
         reserved, in reservation order; sized for the most a placement
         can reserve (one per predecessor edge and one per cluster) *)
  mutable n_pending : int;
  dest_deadline : int array;
      (* per consumer cluster of the placement being tried, its
         tightest deadline; max_int = not a destination *)
  dest_order : int array;  (* those clusters in the order first met *)
  mutable n_dests : int;
  buckets : int array;  (* [copy_bucket] per cluster *)
  bucket_order : int array;  (* the distinct buckets, ascending *)
  cand : int array;  (* candidate clusters, in preference order *)
  cand_cost : int array;
  cand_load : int array;
  mutable n_cand : int;
  mutable w_estart : int;  (* the last [window] *)
  mutable w_lstart : int;
  mutable w_has_pred : bool;
  mutable w_has_succ : bool;
}

let create_state cfg ddg ~latency ~ii =
  let n = Ddg.n_ops ddg and nc = cfg.Config.n_clusters in
  let mem_component, n_components = memory_components ddg in
  let preds = Array.init n (fun v -> Array.of_list (Ddg.preds ddg v)) in
  let max_preds = Array.fold_left (fun m es -> max m (Array.length es)) 0 preds in
  let buckets = Array.init nc copy_bucket in
  {
    ddg;
    latency;
    preds;
    succs = Array.init n (fun v -> Array.of_list (Ddg.succs ddg v));
    nc;
    copy_lat = cfg.Config.reg_copy_latency;
    ii;
    mrt = Mrt.create cfg ~ii;
    start = Array.make n 0;
    cluster = Array.make n (-1);
    first_copy = Array.make (n * nc) max_int;
    mem_component;
    component_cluster = Array.make (max 1 n_components) (-1);
    copies = [];
    pending = Array.make (4 * (max_preds + nc)) 0;
    n_pending = 0;
    dest_deadline = Array.make nc max_int;
    dest_order = Array.make nc 0;
    n_dests = 0;
    buckets;
    bucket_order =
      Array.of_list (List.sort_uniq Int.compare (Array.to_list buckets));
    cand = Array.make nc 0;
    cand_cost = Array.make nc 0;
    cand_load = Array.make nc 0;
    n_cand = 0;
    w_estart = 0;
    w_lstart = 0;
    w_has_pred = false;
    w_has_succ = false;
  }

let reset_state st ~ii =
  st.ii <- ii;
  Mrt.reset st.mrt ~ii;
  Array.fill st.cluster 0 (Array.length st.cluster) (-1);
  Array.fill st.first_copy 0 (Array.length st.first_copy) max_int;
  Array.fill st.component_cluster 0 (Array.length st.component_cluster) (-1);
  st.copies <- []

let scheduled st v = st.cluster.(v) >= 0

let add_pending st ~src ~from ~into ~start =
  let i = 4 * st.n_pending in
  st.pending.(i) <- src;
  st.pending.(i + 1) <- from;
  st.pending.(i + 2) <- into;
  st.pending.(i + 3) <- start;
  st.n_pending <- st.n_pending + 1

(* Whether the placement being tried has reserved a copy of [src]
   starting by [deadline]. *)
let planned st ~src ~deadline =
  let found = ref false and j = ref 0 in
  while (not !found) && !j < st.n_pending do
    let i = 4 * !j in
    found := st.pending.(i) = src && st.pending.(i + 3) <= deadline;
    incr j
  done;
  !found

(* Commit the pending copies, newest reservation first. *)
let commit_pending st =
  for j = st.n_pending - 1 downto 0 do
    let i = 4 * j in
    let src = st.pending.(i) and into = st.pending.(i + 2) in
    let start = st.pending.(i + 3) in
    st.copies <-
      { Schedule.src_op = src; from_cluster = st.pending.(i + 1);
        to_cluster = into; start }
      :: st.copies;
    let key = (src * st.nc) + into in
    if start < st.first_copy.(key) then st.first_copy.(key) <- start
  done

(* The dependence window of [v] in cluster [c] given its scheduled
   neighbours, into [w_*]: earliest start, latest start, and whether any
   predecessor / successor constrains it. *)
let window st v c =
  let copy_lat = st.copy_lat in
  let estart = ref 0
  and lstart = ref max_int
  and has_pred = ref false
  and has_succ = ref false in
  let preds = st.preds.(v) in
  for i = 0 to Array.length preds - 1 do
    let e = preds.(i) in
    let u = e.Edge.src in
    if scheduled st u then begin
      let cross = st.cluster.(u) <> c in
      match e.Edge.kind with
      | (Edge.Reg_anti | Edge.Reg_out) when cross -> ()
      | kind ->
          has_pred := true;
          let shift = st.ii * e.Edge.distance in
          let base =
            if kind = Edge.Reg_flow && cross then begin
              let via_new = st.start.(u) + st.latency u + copy_lat - shift in
              let first = st.first_copy.((u * st.nc) + c) in
              if first = max_int then via_new
              else min via_new (first + copy_lat - shift)
            end
            else
              st.start.(u) + Ddg.effective_latency ~latency:st.latency e - shift
          in
          if base > !estart then estart := base
    end
  done;
  let succs = st.succs.(v) in
  for i = 0 to Array.length succs - 1 do
    let e = succs.(i) in
    let w = e.Edge.dst in
    if w <> v && scheduled st w then begin
      let cross = st.cluster.(w) <> c in
      match e.Edge.kind with
      | (Edge.Reg_anti | Edge.Reg_out) when cross -> ()
      | kind ->
          has_succ := true;
          let shift = st.ii * e.Edge.distance in
          let bound =
            if kind = Edge.Reg_flow && cross then
              st.start.(w) + shift - copy_lat - st.latency v
            else
              st.start.(w) - Ddg.effective_latency ~latency:st.latency e + shift
          in
          if bound < !lstart then lstart := bound
    end
  done;
  (* Start cycles may be negative: the flat schedule is normalized by a
     multiple of the II once the attempt succeeds. *)
  st.w_estart <- !estart;
  st.w_lstart <- !lstart;
  st.w_has_pred <- !has_pred;
  st.w_has_succ <- !has_succ

(* Find and reserve a copy slot on [from_cluster] in [earliest..latest];
   the slot's cycle, or [min_int] if there is none. *)
let reserve_copy_slot st ~from_cluster ~earliest ~latest =
  let found = ref min_int and s = ref earliest in
  while !found = min_int && !s <= latest do
    if
      Mrt.issue_free st.mrt ~cluster:from_cluster ~cycle:!s
      && Mrt.reg_bus_free st.mrt ~cycle:!s
    then begin
      Mrt.reserve_issue st.mrt ~cluster:from_cluster ~cycle:!s;
      Mrt.reserve_reg_bus st.mrt ~cycle:!s;
      found := !s
    end
    else incr s
  done;
  !found

(* Copies feeding [v] in cluster [c] at cycle [t] from cross-cluster
   predecessors.  A producer needs no new copy when a committed copy
   already arrives in time, or a copy this placement reserved meets the
   edge's deadline. *)
let reserve_pred_copies st v c t =
  let copy_lat = st.copy_lat and preds = st.preds.(v) in
  let ok = ref true and i = ref 0 in
  while !ok && !i < Array.length preds do
    let e = preds.(!i) in
    let u = e.Edge.src in
    if scheduled st u && e.Edge.kind = Edge.Reg_flow && st.cluster.(u) <> c
    then begin
      let shift = st.ii * e.Edge.distance in
      let deadline = t + shift - copy_lat in
      let first = st.first_copy.((u * st.nc) + c) in
      let reusable = first <> max_int && first + copy_lat - shift <= t in
      if not (reusable || planned st ~src:u ~deadline) then begin
        let from = st.cluster.(u) in
        let s =
          reserve_copy_slot st ~from_cluster:from
            ~earliest:(st.start.(u) + st.latency u)
            ~latest:deadline
        in
        if s = min_int then ok := false
        else add_pending st ~src:u ~from ~into:c ~start:s
      end
    end;
    incr i
  done;
  !ok

(* Copies from [v] to already-scheduled cross-cluster consumers: one per
   destination cluster, placed to meet its tightest consumer, reserved
   in the {!copy_bucket} order. *)
let reserve_succ_copies st v c t =
  let succs = st.succs.(v) in
  for i = 0 to Array.length succs - 1 do
    let e = succs.(i) in
    let w = e.Edge.dst in
    if
      w <> v && scheduled st w && e.Edge.kind = Edge.Reg_flow
      && st.cluster.(w) <> c
    then begin
      let deadline = st.start.(w) + (st.ii * e.Edge.distance) - st.copy_lat in
      let cw = st.cluster.(w) in
      if st.dest_deadline.(cw) = max_int then begin
        st.dest_order.(st.n_dests) <- cw;
        st.n_dests <- st.n_dests + 1
      end;
      if deadline < st.dest_deadline.(cw) then st.dest_deadline.(cw) <- deadline
    end
  done;
  let ok = ref true and b = ref 0 in
  while !ok && !b < Array.length st.bucket_order do
    let j = ref (st.n_dests - 1) in
    while !ok && !j >= 0 do
      let dest = st.dest_order.(!j) in
      if st.buckets.(dest) = st.bucket_order.(!b) then begin
        let s =
          reserve_copy_slot st ~from_cluster:c ~earliest:(t + st.latency v)
            ~latest:st.dest_deadline.(dest)
        in
        if s = min_int then ok := false
        else add_pending st ~src:v ~from:c ~into:dest ~start:s
      end;
      decr j
    done;
    incr b
  done;
  for j = 0 to st.n_dests - 1 do
    st.dest_deadline.(st.dest_order.(j)) <- max_int
  done;
  st.n_dests <- 0;
  !ok

(* Try to place [v] in cluster [c] at cycle [t], reserving its FU slot
   and the copies it needs (left pending).  The MRT is mutated either
   way; the caller restores it on failure. *)
let try_place st v c t =
  let fu = Opcode.fu_class (Ddg.op st.ddg v).Operation.opcode in
  st.n_pending <- 0;
  Mrt.fu_free st.mrt ~cluster:c ~fu ~cycle:t
  && reserve_pred_copies st v c t
  && reserve_succ_copies st v c t
  (* A copy reserved above may have taken the issue slot that was free
     on entry; re-check before committing. *)
  && Mrt.fu_free st.mrt ~cluster:c ~fu ~cycle:t
  && begin
       Mrt.reserve_fu st.mrt ~cluster:c ~fu ~cycle:t;
       true
     end

(* Members of a memory-dependence component must share the cluster; the
   component is pinned by its first scheduled member. *)
let mem_cluster_ok st v c =
  let comp = st.mem_component.(v) in
  comp < 0
  || st.component_cluster.(comp) < 0
  || st.component_cluster.(comp) = c

let comm_cost st v c =
  let cost = ref 0 in
  let preds = st.preds.(v) and succs = st.succs.(v) in
  for i = 0 to Array.length preds - 1 do
    let u = preds.(i).Edge.src in
    if
      preds.(i).Edge.kind = Edge.Reg_flow && scheduled st u
      && st.cluster.(u) <> c
      && st.first_copy.((u * st.nc) + c) = max_int
    then incr cost
  done;
  for i = 0 to Array.length succs - 1 do
    let w = succs.(i).Edge.dst in
    if
      succs.(i).Edge.kind = Edge.Reg_flow && w <> v && scheduled st w
      && st.cluster.(w) <> c
    then incr cost
  done;
  !cost

(* The clusters [v] may go to, into [cand], in preference order: a
   [Forced] node's own cluster, or every feasible cluster by (new
   communications, load, id). *)
let candidate_clusters st (hooks : hooks) v ~allow_cross_cluster_mem =
  st.n_cand <- 0;
  match hooks.choice v with
  | Forced c ->
      if allow_cross_cluster_mem || mem_cluster_ok st v c then begin
        st.cand.(0) <- c;
        st.n_cand <- 1
      end
  | Free ->
      for c = 0 to st.nc - 1 do
        if allow_cross_cluster_mem || mem_cluster_ok st v c then begin
          let cost = comm_cost st v c and load = Mrt.cluster_load st.mrt c in
          (* insertion into the sorted prefix; ids ascend, so an equal
             (cost, load) key stays behind *)
          let j = ref st.n_cand in
          while
            !j > 0
            && (st.cand_cost.(!j - 1) > cost
               || (st.cand_cost.(!j - 1) = cost && st.cand_load.(!j - 1) > load))
          do
            st.cand.(!j) <- st.cand.(!j - 1);
            st.cand_cost.(!j) <- st.cand_cost.(!j - 1);
            st.cand_load.(!j) <- st.cand_load.(!j - 1);
            decr j
          done;
          st.cand.(!j) <- c;
          st.cand_cost.(!j) <- cost;
          st.cand_load.(!j) <- load;
          st.n_cand <- st.n_cand + 1
        end
      done

(* Probe up to [count] cycles starting at [first], stepping by [step]
   (+1 ascending from estart, -1 descending from lstart).  A failed
   probe undoes only the reservations it made (back to one journal
   mark). *)
let try_cycles st v c ~first ~count ~step =
  let mark = Mrt.snapshot st.mrt in
  let placed = ref false and i = ref 0 and t = ref first in
  while (not !placed) && !i < count do
    if try_place st v c !t then begin
      st.start.(v) <- !t;
      st.cluster.(v) <- c;
      let comp = st.mem_component.(v) in
      if comp >= 0 && st.component_cluster.(comp) < 0 then
        st.component_cluster.(comp) <- c;
      commit_pending st;
      placed := true
    end
    else begin
      Mrt.restore st.mrt mark;
      incr i;
      t := !t + step
    end
  done;
  !placed

let place st hooks v ~allow_cross_cluster_mem =
  candidate_clusters st hooks v ~allow_cross_cluster_mem;
  let ii = st.ii in
  let placed = ref false and k = ref 0 in
  while (not !placed) && !k < st.n_cand do
    let c = st.cand.(!k) in
    window st v c;
    let estart = st.w_estart and lstart = st.w_lstart in
    placed :=
      (if not st.w_has_succ then try_cycles st v c ~first:estart ~count:ii ~step:1
       else if not st.w_has_pred then
         try_cycles st v c ~first:lstart ~count:ii ~step:(-1)
       else
         let hi = min lstart (estart + ii - 1) in
         hi >= estart
         && try_cycles st v c ~first:estart ~count:(hi - estart + 1) ~step:1);
    incr k
  done;
  !placed

let attempt st ~order_base ~hooks ~allow_cross_cluster_mem ~hoisted ~ii =
  hooks.reset ();
  reset_state st ~ii;
  let order =
    (* Wedge recovery: nodes a previous same-II attempt could not place
       are hoisted to the front, where their window is unconstrained.
       The base ordering only depends on the II, so [try_ii] computes it
       once and shares it across hoist retries. *)
    if hoisted = [] then order_base
    else hoisted @ List.filter (fun v -> not (List.mem v hoisted)) order_base
  in
  let rec go = function
    | [] -> None
    | v :: rest ->
        if place st hooks v ~allow_cross_cluster_mem then begin
          hooks.on_scheduled ~op:v ~cluster:st.cluster.(v);
          go rest
        end
        else Some v
  in
  match go order with
  | Some v -> Error v
  | None ->
      (* Normalize: shift everything by a multiple of the II so the
         earliest issue (operation or copy) lands in [0, II). *)
      let earliest =
        List.fold_left
          (fun acc (cp : Schedule.copy) -> min acc cp.Schedule.start)
          (Array.fold_left min max_int st.start)
          st.copies
      in
      let shift =
        if earliest >= 0 then 0 else (((-earliest) + ii - 1) / ii) * ii
      in
      Ok
        {
          Schedule.ii;
          n_clusters = st.nc;
          cluster = Array.copy st.cluster;
          start = Array.map (fun s -> s + shift) st.start;
          copies =
            List.map
              (fun (cp : Schedule.copy) ->
                { cp with Schedule.start = cp.Schedule.start + shift })
              st.copies;
        }

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
  let st = create_state cfg ddg ~latency ~ii:(max 1 mii) in
  let try_ii ii =
    (* The greedy pass can wedge on the node that closes a recurrence (a
       node scheduled after both its predecessors and successors, whose
       zero-distance window came out empty).  Re-running the same II
       with the wedged node placed first resolves this without
       backtracking inside an attempt. *)
    let order_base = Ordering.ordered prepared ddg ~latency ~ii in
    let rec retry hoisted k =
      match
        attempt st ~order_base ~hooks ~allow_cross_cluster_mem ~hoisted ~ii
      with
      | Ok s -> Some s
      | Error v when k < max_hoist_retries && not (List.mem v hoisted) ->
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
