exception Infeasible

(* One simple cycle of the recurrence: the operations whose (variable)
   latency its edges use, plus the fixed latency and distance sums. *)
type cycle = { c_ops : int array; c_fixed : int; c_dist : int }

(* A captured recurrence: node ids remapped to a dense [0, n) range and
   the induced edges stored flat, with scratch arrays reused by every
   longest-path run (latency assignment makes hundreds per solver).

   The edges are stored by a topological order of their sources over
   the distance-0 edges ([topological]), so one relaxation pass settles
   every distance-0 chain: on the suite a run averages about two rounds
   where the DDG's listing order took about six.  The order changes no
   answer: Bellman–Ford's fixpoint does not depend on it, and [solve]
   and [solve_feasible] are exact.  Only which witness cycles a run
   meets, and so how many runs a climb takes, may differ. *)
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

(* The recurrence's edges ordered by a topological order of their
   sources over the distance-0 edges (Kahn's algorithm on adjacency
   lists of the edges by source, O(n + m)), or as gathered when the
   distance-0 edges close a cycle.  [index] maps an original id to its
   dense one. *)
let topological ~index ~n edges =
  let m = Array.length edges in
  if m = 0 then edges
  else begin
    let start = Array.make (n + 1) 0 and indeg = Array.make n 0 in
    Array.iter
      (fun (e : Edge.t) ->
        let u = index.(e.src) + 1 in
        start.(u) <- start.(u) + 1;
        if e.distance = 0 then
          indeg.(index.(e.dst)) <- indeg.(index.(e.dst)) + 1)
      edges;
    for v = 1 to n do
      start.(v) <- start.(v) + start.(v - 1)
    done;
    let out = Array.make m edges.(0) and next = Array.sub start 0 n in
    Array.iter
      (fun (e : Edge.t) ->
        let u = index.(e.src) in
        out.(next.(u)) <- e;
        next.(u) <- next.(u) + 1)
      edges;
    (* [order.(0 .. !tail - 1)] is both Kahn's queue and its result *)
    let order = Array.make n 0 and head = ref 0 and tail = ref 0 in
    for v = 0 to n - 1 do
      if indeg.(v) = 0 then begin
        order.(!tail) <- v;
        incr tail
      end
    done;
    while !head < !tail do
      let u = order.(!head) in
      incr head;
      for k = start.(u) to start.(u + 1) - 1 do
        let e = out.(k) in
        if e.distance = 0 then begin
          let w = index.(e.dst) in
          indeg.(w) <- indeg.(w) - 1;
          if indeg.(w) = 0 then begin
            order.(!tail) <- w;
            incr tail
          end
        end
      done
    done;
    if !tail < n then edges
    else begin
      let sorted = Array.make m edges.(0) and j = ref 0 in
      Array.iter
        (fun u ->
          for k = start.(u) to start.(u + 1) - 1 do
            sorted.(!j) <- out.(k);
            incr j
          done)
        order;
      sorted
    end
  end

let solver ddg ~nodes =
  let node_arr = Array.of_list nodes in
  let n = Array.length node_arr in
  (* dense index per original id, -1 outside the recurrence *)
  let index = Array.make (Ddg.n_ops ddg) (-1) in
  Array.iteri (fun i v -> index.(v) <- i) node_arr;
  let inside (e : Edge.t) = index.(e.src) >= 0 && index.(e.dst) >= 0 in
  let edges =
    topological ~index ~n (Array.of_list (List.filter inside (Ddg.edges ddg)))
  in
  let m = Array.length edges in
  let srcs = Array.make m 0
  and dsts = Array.make m 0
  and lat_ops = Array.make m (-1)
  and fixed = Array.make m 0
  and dists = Array.make m 0 in
  Array.iteri
    (fun i (e : Edge.t) ->
      srcs.(i) <- index.(e.src);
      dsts.(i) <- index.(e.dst);
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
  for i = 0 to Array.length c.c_ops - 1 do
    l := !l + latency c.c_ops.(i)
  done;
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
   current stamp again closes a cycle.  [cycle_node] answers the node
   the walk closed on, or -1. *)
let rec cycle_node s start v =
  if s.mark.(v) = start then v
  else if s.mark.(v) >= 0 || s.pred.(v) < 0 then -1
  else begin
    s.mark.(v) <- start;
    cycle_node s start s.srcs.(s.pred.(v))
  end

let pred_cycle s =
  Array.fill s.mark 0 s.n (-1);
  let found = ref (-1) and start = ref 0 in
  while !found < 0 && !start < s.n do
    found := cycle_node s !start !start;
    incr start
  done;
  if !found < 0 then None else Some (cycle_through s !found)

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
  let outcome = ref Diverged and running = ref true and r = ref 1 in
  while !running do
    let changed = ref false in
    for i = 0 to m - 1 do
      let cand = s.dist.(s.srcs.(i)) + edge_lat s ~latency i - (ii * s.dists.(i)) in
      if cand > s.dist.(s.dsts.(i)) then begin
        s.dist.(s.dsts.(i)) <- cand;
        s.pred.(s.dsts.(i)) <- i;
        changed := true
      end
    done;
    if not !changed then begin
      outcome := Converged;
      running := false
    end
    else begin
      match pred_cycle s with
      | Some c when cycle_lat c ~latency > ii * c.c_dist ->
          outcome := Witness c;
          running := false
      | Some _ | None -> if !r > s.n then running := false else incr r
    end
  done;
  !outcome

let ceiling s ~latency =
  let c = ref 1 in
  for i = 0 to s.n - 1 do
    c := !c + max 1 (latency s.nodes.(i))
  done;
  !c

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

let rec witnesses_allow ~latency ~ii = function
  | [] -> true
  | c :: rest ->
      cycle_lat c ~latency <= ii * c.c_dist && witnesses_allow ~latency ~ii rest

let solve_feasible s ~latency ~ii =
  witnesses_allow ~latency ~ii s.witnesses
  &&
  match longest_paths s ~latency ~ii with
  | Converged -> true
  | Witness c ->
      remember s c;
      false
  | Diverged -> false

(* The best lower bound the kept witnesses prove under [latency]. *)
let rec witness_floor ~latency acc = function
  | [] -> acc
  | c :: rest ->
      let ii = cycle_ii c ~latency in
      witness_floor ~latency (if ii > acc then ii else acc) rest

(* Every II below the climb's current value is refuted by some witness
   cycle (or by a diverged run), and the climb stops at the first II a
   run proves feasible — so the answer is the minimal feasible II,
   certified from both sides.  Each witness lifts the climb strictly
   above the II it refuted.  Without a known-feasible cap, the
   worst-case bound (every simple cycle of distance >= 1 has latency
   below it) stands in: still infeasible there means only a
   zero-distance positive cycle is left. *)
let rec climb s ~latency ~upper_feasible ii =
  match upper_feasible with
  | Some upper when ii >= upper -> upper
  | _ -> (
      match longest_paths s ~latency ~ii with
      | Converged -> ii
      | Witness c ->
          remember s c;
          climb s ~latency ~upper_feasible (cycle_ii c ~latency)
      | Diverged ->
          if Option.is_none upper_feasible && ii >= ceiling s ~latency then
            raise Infeasible;
          climb s ~latency ~upper_feasible (ii + 1))

let solve ?upper_feasible s ~latency =
  climb s ~latency ~upper_feasible (witness_floor ~latency 1 s.witnesses)

let feasible ddg ~latency ~nodes ~ii =
  solve_feasible (solver ddg ~nodes) ~latency ~ii

let recurrence_ii ddg ~latency nodes = solve (solver ddg ~nodes) ~latency

let rec_mii ddg ~latency =
  List.fold_left
    (fun acc nodes -> max acc (recurrence_ii ddg ~latency nodes))
    1
    (Scc.recurrences ddg)
