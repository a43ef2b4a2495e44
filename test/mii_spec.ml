(* Executable specification of a recurrence's II: the plain
   Bellman–Ford positive-cycle test, binary-searched over the II.
   Slow but obviously right — [Mii] must agree with it on every input
   (see the RecMII properties in test_props.ml). *)

open Vliw_ir

(* Is the subgraph induced by [nodes] free of positive cycles under
   weights lat(e) - ii * distance(e)? *)
let feasible ddg ~latency ~nodes ~ii =
  let n = Ddg.n_ops ddg in
  let inside = Array.make n false in
  List.iter (fun v -> inside.(v) <- true) nodes;
  let edges =
    List.filter (fun (e : Edge.t) -> inside.(e.src) && inside.(e.dst)) (Ddg.edges ddg)
  in
  let dist = Array.make n 0 in
  let changed = ref true and rounds = ref 0 in
  while !changed && !rounds <= List.length nodes do
    changed := false;
    incr rounds;
    List.iter
      (fun (e : Edge.t) ->
        let cand =
          dist.(e.src) + Ddg.effective_latency ~latency e - (ii * e.distance)
        in
        if cand > dist.(e.dst) then begin
          dist.(e.dst) <- cand;
          changed := true
        end)
      edges
  done;
  not !changed

(* Feasibility is monotone in the II, so the search returns the minimal
   feasible II from any feasible upper bound.  Without one, the
   worst-case bound (above every distance >= 1 cycle's latency) is
   probed first: infeasible there means a zero-distance positive cycle. *)
let solve ?upper_feasible ddg ~latency ~nodes =
  let rec search lo hi =
    if lo >= hi then hi
    else
      let mid = (lo + hi) / 2 in
      if feasible ddg ~latency ~nodes ~ii:mid then search lo mid
      else search (mid + 1) hi
  in
  match upper_feasible with
  | Some upper -> search 1 upper
  | None ->
      let upper = List.fold_left (fun acc v -> acc + max 1 (latency v)) 1 nodes in
      if not (feasible ddg ~latency ~nodes ~ii:upper) then raise Mii.Infeasible;
      search 1 upper

(* The complete 8-node graph with a distance-1 register flow between
   every ordered pair: 16,064 simple cycles in one recurrence.  With
   [zero_cycle], nodes 0 and 1 also feed each other at distance 0 — a
   positive cycle no II can pay for. *)
let complete_graph ?(zero_cycle = false) () =
  let b = Builder.create () in
  let ids = List.init 8 (fun _ -> Builder.add b Opcode.Int_mul) in
  List.iter
    (fun src ->
      List.iter (fun dst -> if src <> dst then Builder.flow b ~distance:1 src dst) ids)
    ids;
  if zero_cycle then begin
    Builder.flow b 0 1;
    Builder.flow b 1 0
  end;
  Builder.build b
