module Ddg = Vliw_ir.Ddg
module Edge = Vliw_ir.Edge
module Scc = Vliw_ir.Scc
module Mii = Vliw_ir.Mii

(* Longest-path relaxation with weights [lat - ii*distance], clamped at 0.
   Converges in <= n rounds when ii >= RecMII (no positive cycles).  The
   edge walks are top-level functions over the adjacency lists, so a
   round allocates nothing. *)
let weight ~latency ~ii e = Ddg.effective_latency ~latency e - (ii * e.Edge.distance)

(* One pass over [v]'s outgoing edges for [estart] (or, [forward =
   false], its incoming edges for [height]); true if any value grew. *)
let rec relax_edges dist ~latency ~ii ~forward changed = function
  | [] -> changed
  | (e : Edge.t) :: rest ->
      let from = if forward then e.src else e.dst
      and into = if forward then e.dst else e.src in
      let cand = dist.(from) + weight ~latency ~ii e in
      let grew = cand > dist.(into) in
      if grew then dist.(into) <- cand;
      relax_edges dist ~latency ~ii ~forward (changed || grew) rest

let relax ddg dist ~latency ~ii ~forward =
  let n = Ddg.n_ops ddg in
  let changed = ref true and rounds = ref 0 in
  while !changed && !rounds <= n do
    changed := false;
    incr rounds;
    for v = 0 to n - 1 do
      let edges = if forward then Ddg.succs ddg v else Ddg.preds ddg v in
      if relax_edges dist ~latency ~ii ~forward false edges then changed := true
    done
  done

let depths ddg ~latency ~ii =
  let n = Ddg.n_ops ddg in
  let estart = Array.make n 0 and height = Array.make n 0 in
  relax ddg estart ~latency ~ii ~forward:true;
  relax ddg height ~latency ~ii ~forward:false;
  (estart, height)

type direction = Top_down | Bottom_up

type prepared = { groups : int list list; rec_mii : int }

let rec_mii prepared = prepared.rec_mii

(* Mark in [seen] the not-yet-seen endpoints of [edges] (their
   destinations, or their sources when not [forward]) that are
   [allowed], appending each to [found] at [len]; the new length. *)
let rec mark_endpoints ~seen ~allowed ~forward found len = function
  | [] -> len
  | (e : Edge.t) :: rest ->
      let w = if forward then e.dst else e.src in
      if allowed.(w) && not seen.(w) then begin
        seen.(w) <- true;
        found.(len) <- w;
        mark_endpoints ~seen ~allowed ~forward found (len + 1) rest
      end
      else mark_endpoints ~seen ~allowed ~forward found len rest

(* Mark every node reachable from [seeds] along successor (or, not
   [forward], predecessor) edges, through [allowed] nodes only, in
   [seen]; the newly marked nodes are [found.(0 .. result - 1)].
   [found] doubles as the work list, so a walk allocates nothing. *)
let reach ddg ~seen ~allowed ~forward found seeds =
  let len =
    List.fold_left
      (fun len v ->
        if seen.(v) then len
        else begin
          seen.(v) <- true;
          found.(len) <- v;
          len + 1
        end)
      0 seeds
  in
  let len = ref len and i = ref 0 in
  while !i < !len do
    let v = found.(!i) in
    let edges = if forward then Ddg.succs ddg v else Ddg.preds ddg v in
    len := mark_endpoints ~seen ~allowed ~forward found !len edges;
    incr i
  done;
  !len

let prepare ddg ~latency =
  let n = Ddg.n_ops ddg in
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
  let prioritized =
    Scc.components ddg
    |> List.map (fun nodes ->
           (scc_priority nodes, List.length nodes, List.fold_left min max_int nodes, nodes))
    |> List.sort (fun (p1, s1, m1, _) (p2, s2, m2, _) ->
           if p1 <> p2 then compare p2 p1
           else if s1 <> s2 then compare s2 s1
           else compare m1 m2)
  in
  let rec_mii = List.fold_left (fun acc (p, _, _, _) -> max acc p) 1 prioritized in
  (* Each SCC set is ordered together with the unordered nodes on paths
     between the already-ordered nodes and it, so later nodes keep the
     "only preds or only succs" property.  Which nodes those are does
     not depend on the II, only on the graph: a node on a path from an
     ordered node to the set is itself a descendant of the ordered
     nodes, so walking back from the set through those descendants (and
     forward through their ancestors) finds exactly the path nodes.
     The descendant and ancestor sets only grow, so they are extended
     in place as each group is ordered. *)
  let grouped = Array.make n false in
  let desc_o = Array.make n false and anc_o = Array.make n false in
  let scratch = Array.make n false and everywhere = Array.make n true in
  let found = Array.make n 0 in
  let groups =
    List.filter_map
      (fun (_, _, _, set) ->
        let set = List.filter (fun v -> not grouped.(v)) set in
        if set = [] then None
        else begin
          let group = ref [] in
          let add v =
            if not grouped.(v) then begin
              grouped.(v) <- true;
              group := v :: !group
            end
          in
          List.iter add set;
          let path seen_in ~forward =
            let len =
              reach ddg ~seen:scratch ~allowed:seen_in ~forward found set
            in
            for i = 0 to len - 1 do
              scratch.(found.(i)) <- false;
              add found.(i)
            done
          in
          path desc_o ~forward:false;
          path anc_o ~forward:true;
          let group = List.sort Int.compare !group in
          ignore
            (reach ddg ~seen:desc_o ~allowed:everywhere ~forward:true found
               group);
          ignore
            (reach ddg ~seen:anc_o ~allowed:everywhere ~forward:false found
               group);
          Some group
        end)
      prioritized
  in
  { groups; rec_mii }

(* Whether an edge list reaches an [ordered] node at its source (resp.
   destination) end. *)
let rec has_ordered_src ordered = function
  | [] -> false
  | (e : Edge.t) :: rest -> ordered.(e.src) || has_ordered_src ordered rest

let rec has_ordered_dst ordered = function
  | [] -> false
  | (e : Edge.t) :: rest -> ordered.(e.dst) || has_ordered_dst ordered rest

let ordered prepared ddg ~latency ~ii =
  let n = Ddg.n_ops ddg in
  let estart, height = depths ddg ~latency ~ii in
  let horizon = Array.fold_left max 0 estart in
  let mobility v = max 0 (horizon - height.(v) - estart.(v)) in
  let ordered = Array.make n false in
  let rev_order = ref [] in
  let append v =
    ordered.(v) <- true;
    rev_order := v :: !rev_order
  in
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
  let inner () =
    while !remaining > 0 do
      (* Choose the sweep direction from how the working set touches the
         already-ordered nodes. *)
      let dir = ref Top_down in
      let seeded = ref false in
      for v = 0 to n - 1 do
        if
          in_work.(v)
          && has_ordered_src ordered (Ddg.preds ddg v)
        then begin
          seeded := true;
          push Top_down v
        end
      done;
      if not !seeded then begin
        for v = 0 to n - 1 do
          if
            in_work.(v)
            && has_ordered_dst ordered (Ddg.succs ddg v)
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
    (fun group ->
      List.iter
        (fun v ->
          in_work.(v) <- true;
          incr remaining)
        group;
      inner ())
    prepared.groups;
  List.rev !rev_order

let order ddg ~latency ~ii = ordered (prepare ddg ~latency) ddg ~latency ~ii
