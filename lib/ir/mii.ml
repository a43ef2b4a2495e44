exception Infeasible

(* One simple cycle of the recurrence: the operations whose (variable)
   latency its edges use, plus the fixed latency and distance sums. *)
type cycle = { c_ops : int array; c_fixed : int; c_dist : int }

(* A captured recurrence: node ids remapped to a dense [0, n) range and
   the induced edges stored flat, with scratch arrays reused by every
   longest-path run (latency assignment makes hundreds per solver). *)
type solver = {
  n : int;
  nodes : int array;  (** dense index -> original id *)
  srcs : int array;
  dsts : int array;
  lat_ops : int array;  (** original id of the op whose latency the edge
                            uses (Reg_flow), or -1 for fixed latency *)
  fixed : int array;  (** fixed component of the edge latency *)
  dists : int array;
  dist : int array;  (** longest-path scratch *)
  pred : int array;  (** edge that last improved each node, or -1 *)
  mark : int array;  (** pred-graph walk scratch *)
  mutable witnesses : cycle list;
      (** positive cycles found by earlier runs, newest first, at most
          [max_witnesses]: each proves a lower bound on the II under any
          latencies, so [solve] starts its climb from the best of them *)
}

let max_witnesses = 16

let solver ddg ~nodes =
  let node_arr = Array.of_list nodes in
  let n = Array.length node_arr in
  let index = Hashtbl.create n in
  Array.iteri (fun i v -> Hashtbl.replace index v i) node_arr;
  let edges =
    List.filter
      (fun (e : Edge.t) ->
        Hashtbl.mem index e.src && Hashtbl.mem index e.dst)
      (Ddg.edges ddg)
  in
  let m = List.length edges in
  let srcs = Array.make m 0
  and dsts = Array.make m 0
  and lat_ops = Array.make m (-1)
  and fixed = Array.make m 0
  and dists = Array.make m 0 in
  List.iteri
    (fun i (e : Edge.t) ->
      srcs.(i) <- Hashtbl.find index e.src;
      dsts.(i) <- Hashtbl.find index e.dst;
      dists.(i) <- e.distance;
      match e.kind with
      | Edge.Reg_flow -> lat_ops.(i) <- e.src
      | Edge.Reg_anti -> fixed.(i) <- 0
      | Edge.Reg_out | Edge.Mem_flow | Edge.Mem_anti | Edge.Mem_out
      | Edge.Mem_unresolved ->
          fixed.(i) <- 1)
    edges;
  let scratch () = Array.make (max 1 n) 0 in
  { n; nodes = node_arr; srcs; dsts; lat_ops; fixed; dists;
    dist = scratch (); pred = scratch (); mark = scratch (); witnesses = [] }

let edge_lat s ~latency i =
  if s.lat_ops.(i) >= 0 then latency s.lat_ops.(i) else s.fixed.(i)

let cycle_lat c ~latency =
  let l = ref c.c_fixed in
  Array.iter (fun op -> l := !l + latency op) c.c_ops;
  !l

(* The cycle through dense node [v] in the pred graph, read off the
   pred edges. *)
let cycle_through s v =
  let rec walk u ops fx d =
    let e = s.pred.(u) in
    let ops = if s.lat_ops.(e) >= 0 then s.lat_ops.(e) :: ops else ops in
    let fx = fx + s.fixed.(e) and d = d + s.dists.(e) in
    let u = s.srcs.(e) in
    if u = v then { c_ops = Array.of_list ops; c_fixed = fx; c_dist = d }
    else walk u ops fx d
  in
  walk v [] 0 0

(* A cycle of the pred graph, if any: walk pred edges from each
   unvisited node, stamping the walk's nodes with its start; meeting the
   current stamp again closes a cycle. *)
let pred_cycle s =
  Array.fill s.mark 0 s.n (-1);
  let rec walk start v =
    if s.mark.(v) = start then Some v
    else if s.mark.(v) >= 0 || s.pred.(v) < 0 then None
    else begin
      s.mark.(v) <- start;
      walk start s.srcs.(s.pred.(v))
    end
  in
  let rec from start =
    if start >= s.n then None
    else
      match walk start start with
      | Some v -> Some (cycle_through s v)
      | None -> from (start + 1)
  in
  from 0

type outcome = Converged | Witness of cycle | Diverged

(* Bellman–Ford longest paths at [ii] from an implicit source joined to
   every node.  A cycle in the graph of last-improving edges always has
   positive weight: when its closing edge was relaxed, every other edge
   of it satisfied dist(dst) <= dist(src) + w (sources only grow), and
   the closing one held strictly.  So each round with changes checks the
   pred graph, and the run ends as soon as it either converges (no
   positive cycle: [ii] is feasible) or exhibits one.  The witness is
   re-checked against [ii]; without one, still changing after n+1
   rounds proves a positive cycle all the same ([Diverged]). *)
let longest_paths s ~latency ~ii =
  Array.fill s.dist 0 s.n 0;
  Array.fill s.pred 0 s.n (-1);
  let m = Array.length s.srcs in
  let rec round r =
    let changed = ref false in
    for i = 0 to m - 1 do
      let cand = s.dist.(s.srcs.(i)) + edge_lat s ~latency i - (ii * s.dists.(i)) in
      if cand > s.dist.(s.dsts.(i)) then begin
        s.dist.(s.dsts.(i)) <- cand;
        s.pred.(s.dsts.(i)) <- i;
        changed := true
      end
    done;
    if not !changed then Converged
    else
      match pred_cycle s with
      | Some c when cycle_lat c ~latency > ii * c.c_dist -> Witness c
      | Some _ | None -> if r > s.n then Diverged else round (r + 1)
  in
  round 1

let remember s c =
  s.witnesses <- c :: List.filteri (fun i _ -> i < max_witnesses - 1) s.witnesses

(* The least II a witness cycle allows under [latency]: ceil(lat/dist),
   or [Infeasible] for a zero-distance positive cycle (no II can pay for
   it). *)
let cycle_ii c ~latency =
  let lat = cycle_lat c ~latency in
  if c.c_dist > 0 then (lat + c.c_dist - 1) / c.c_dist
  else if lat > 0 then raise Infeasible
  else 1

let solve_feasible s ~latency ~ii =
  List.for_all (fun c -> cycle_lat c ~latency <= ii * c.c_dist) s.witnesses
  &&
  match longest_paths s ~latency ~ii with
  | Converged -> true
  | Witness c ->
      remember s c;
      false
  | Diverged -> false

(* Every II below the climb's current value is refuted by some witness
   cycle (or by a diverged run), and the climb stops at the first II a
   run proves feasible — so the answer is the minimal feasible II,
   certified from both sides.  Each witness lifts the climb strictly
   above the II it refuted.  Without a known-feasible cap, the
   worst-case bound (every simple cycle of distance >= 1 has latency
   below it) stands in: still infeasible there means only a
   zero-distance positive cycle is left. *)
let solve ?upper_feasible s ~latency =
  let ceiling () =
    Array.fold_left (fun acc v -> acc + max 1 (latency v)) 1 s.nodes
  in
  let rec climb ii =
    match upper_feasible with
    | Some upper when ii >= upper -> upper
    | _ -> (
        match longest_paths s ~latency ~ii with
        | Converged -> ii
        | Witness c ->
            remember s c;
            climb (cycle_ii c ~latency)
        | Diverged ->
            if upper_feasible = None && ii >= ceiling () then raise Infeasible;
            climb (ii + 1))
  in
  climb (List.fold_left (fun acc c -> max acc (cycle_ii c ~latency)) 1 s.witnesses)

let feasible ddg ~latency ~nodes ~ii =
  solve_feasible (solver ddg ~nodes) ~latency ~ii

let recurrence_ii ddg ~latency nodes = solve (solver ddg ~nodes) ~latency

let rec_mii ddg ~latency =
  List.fold_left
    (fun acc nodes -> max acc (recurrence_ii ddg ~latency nodes))
    1
    (Scc.recurrences ddg)
