(* Executable specification of the SMS node ordering: the SCC sets in
   priority order, and for each set the nodes on paths between it and
   the already-ordered nodes re-derived at every II from four
   whole-graph reachability walks.  [Ordering] computes those groups
   once per schedule; it must produce the same order on every input
   (see the ordering property in test_props.ml). *)

open Vliw_ir
module Ordering = Vliw_sched.Ordering

type direction = Top_down | Bottom_up

let prepare ddg ~latency =
  (* SCC sets, most II-constraining first. *)
  let scc_priority nodes =
    match nodes with
    | [ v ]
      when not
             (List.exists (fun (e : Edge.t) -> e.dst = v) (Ddg.succs ddg v))
      ->
        0
    | _ -> Mii.recurrence_ii ddg ~latency nodes
  in
  let sets =
    Scc.components ddg
    |> List.map (fun nodes ->
           (scc_priority nodes, List.length nodes, List.fold_left min max_int nodes, nodes))
    |> List.sort (fun (p1, s1, m1, _) (p2, s2, m2, _) ->
           if p1 <> p2 then compare p2 p1
           else if s1 <> s2 then compare s2 s1
           else compare m1 m2)
    |> List.map (fun (_, _, _, nodes) -> nodes)
  in
  sets

let ordered sets ddg ~latency ~ii =
  let n = Ddg.n_ops ddg in
  let estart, height = Ordering.depths ddg ~latency ~ii in
  let horizon = Array.fold_left max 0 estart in
  let mobility v = max 0 (horizon - height.(v) - estart.(v)) in
  let ordered = Array.make n false in
  let rev_order = ref [] in
  let append v =
    ordered.(v) <- true;
    rev_order := v :: !rev_order
  in
  (* Reachability restricted to unordered nodes is not needed: path nodes
     between the ordered set and the next SCC are found on the full
     graph, then filtered. *)
  let reach get_edges endpoint seeds =
    let seen = Array.make n false in
    let stack = ref seeds in
    List.iter (fun v -> seen.(v) <- true) seeds;
    while !stack <> [] do
      match !stack with
      | [] -> ()
      | v :: rest ->
          stack := rest;
          List.iter
            (fun e ->
              let w = endpoint e in
              if not seen.(w) then begin
                seen.(w) <- true;
                stack := w :: !stack
              end)
            (get_edges v)
    done;
    seen
  in
  let descendants seeds = reach (Ddg.succs ddg) (fun e -> e.Edge.dst) seeds in
  let ancestors seeds = reach (Ddg.preds ddg) (fun e -> e.Edge.src) seeds in
  let in_work = Array.make n false in
  let remaining = ref 0 in
  (* The sweep repeatedly takes the minimum of the candidate set under
     the direction's (primary, mobility, id) key.  Keys are unique (the
     id tiebreak) and static for the whole sweep, so a binary heap with
     membership flags yields exactly the same node each step as the
     original fold-over-the-candidate-list — without rebuilding and
     re-sorting that list per selection. *)
  let k1 = Array.make n 0 in
  let heap = Array.make n 0 in
  let heap_size = ref 0 in
  let in_r = Array.make n false in
  let less a b =
    k1.(a) < k1.(b)
    || (k1.(a) = k1.(b)
       &&
       let ma = mobility a and mb = mobility b in
       ma < mb || (ma = mb && a < b))
  in
  let push dir v =
    if not in_r.(v) then begin
      k1.(v) <-
        (match dir with Top_down -> -height.(v) | Bottom_up -> -estart.(v));
      in_r.(v) <- true;
      let i = ref !heap_size in
      incr heap_size;
      heap.(!i) <- v;
      let continue = ref true in
      while !continue && !i > 0 do
        let p = (!i - 1) / 2 in
        if less heap.(!i) heap.(p) then begin
          let tmp = heap.(p) in
          heap.(p) <- heap.(!i);
          heap.(!i) <- tmp;
          i := p
        end
        else continue := false
      done
    end
  in
  let pop () =
    let v = heap.(0) in
    decr heap_size;
    heap.(0) <- heap.(!heap_size);
    let i = ref 0 and continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let s = ref !i in
      if l < !heap_size && less heap.(l) heap.(!s) then s := l;
      if r < !heap_size && less heap.(r) heap.(!s) then s := r;
      if !s = !i then continue := false
      else begin
        let tmp = heap.(!s) in
        heap.(!s) <- heap.(!i);
        heap.(!i) <- tmp;
        i := !s
      end
    done;
    in_r.(v) <- false;
    v
  in
  let touches_ordered get_edges endpoint v =
    List.exists (fun e -> ordered.(endpoint e)) (get_edges v)
  in
  let inner () =
    while !remaining > 0 do
      (* Choose the sweep direction from how the working set touches the
         already-ordered nodes. *)
      let dir = ref Top_down in
      let seeded = ref false in
      for v = 0 to n - 1 do
        if
          in_work.(v)
          && touches_ordered (Ddg.preds ddg) (fun e -> e.Edge.src) v
        then begin
          seeded := true;
          push Top_down v
        end
      done;
      if not !seeded then begin
        for v = 0 to n - 1 do
          if
            in_work.(v)
            && touches_ordered (Ddg.succs ddg) (fun e -> e.Edge.dst) v
          then begin
            seeded := true;
            push Bottom_up v
          end
        done;
        if !seeded then dir := Bottom_up
        else begin
          (* No contact with the ordered set: seed with the earliest
             (estart, id) work node, sweeping top-down. *)
          let seed = ref (-1) in
          for v = n - 1 downto 0 do
            if
              in_work.(v)
              && (!seed < 0
                 || estart.(v) < estart.(!seed)
                 || (estart.(v) = estart.(!seed) && v < !seed))
            then seed := v
          done;
          push Top_down !seed
        end
      end;
      while !heap_size > 0 do
        let v = pop () in
        append v;
        in_work.(v) <- false;
        decr remaining;
        match !dir with
        | Top_down ->
            List.iter
              (fun (e : Edge.t) -> if in_work.(e.dst) then push Top_down e.dst)
              (Ddg.succs ddg v)
        | Bottom_up ->
            List.iter
              (fun (e : Edge.t) -> if in_work.(e.src) then push Bottom_up e.src)
              (Ddg.preds ddg v)
      done
    done
  in
  List.iter
    (fun set ->
      let set = List.filter (fun v -> not ordered.(v)) set in
      if set <> [] then begin
        List.iter
          (fun v ->
            in_work.(v) <- true;
            incr remaining)
          set;
        if !rev_order <> [] then begin
          (* Nodes on paths between the ordered nodes and this SCC must be
             ordered together with it so later nodes keep the
             "only preds or only succs" property. *)
          let anc_set = ancestors set and desc_set = descendants set in
          let desc_o = descendants !rev_order and anc_o = ancestors !rev_order in
          for v = 0 to n - 1 do
            if
              (not ordered.(v))
              && (not in_work.(v))
              && ((anc_set.(v) && desc_o.(v)) || (desc_set.(v) && anc_o.(v)))
            then begin
              in_work.(v) <- true;
              incr remaining
            end
          done
        end;
        inner ()
      end)
    sets;
  List.rev !rev_order

let order ddg ~latency ~ii = ordered (prepare ddg ~latency) ddg ~latency ~ii
