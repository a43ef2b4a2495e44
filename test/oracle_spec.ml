(* Executable specification of the exact oracle's search: the solver
   and the encoder of [Cpsolver] and [Oracle.decide] as they stood with
   a list trail of boxed entries, resource counters restored by
   [post_undo] closures, and candidate values as lists filtered at node
   entry, kept verbatim.  Slow but obviously right — the flat-trail
   solver and encoder must visit the same tree: same result, same
   decisions and conflicts, same witness (see "oracle search matches
   the spec" and "solver search matches the spec" in test_props.ml). *)

module Solver = struct
  exception Conflict

  type entry =
    | Removed of int * int
    | Became_assigned of int
    | Undo_fn of (unit -> unit)

  type var = {
    offset : int;  (** slice of [present] *)
    size : int;
  }

  type t = {
    mutable vars : var array;
    mutable n : int;
    mutable present : Bytes.t;  (** concatenated domain bitmaps, one byte per value *)
    mutable used : int;  (** bytes of [present] in use *)
    mutable count : int array;  (** live domain size per var *)
    mutable assigned : int array;  (** value, or -1 *)
    mutable trail : entry list;
    queue : int Queue.t;
    mutable watchers : (int -> unit) list;  (** registration order *)
    mutable props : int;
  }

  let create () =
    {
      vars = [||];
      n = 0;
      present = Bytes.create 256;
      used = 0;
      count = [||];
      assigned = [||];
      trail = [];
      queue = Queue.create ();
      watchers = [];
      props = 0;
    }

  let n_vars t = t.n

  let grow_arrays t =
    let cap = Array.length t.vars in
    if t.n >= cap then begin
      let cap' = max 16 (2 * cap) in
      let g a d = Array.init cap' (fun i -> if i < Array.length a then a.(i) else d) in
      t.vars <- g t.vars { offset = 0; size = 0 };
      t.count <- g t.count 0;
      t.assigned <- g t.assigned (-1)
    end

  let new_var t ~size =
    if size <= 0 then invalid_arg "Cpsolver.new_var: size must be positive";
    grow_arrays t;
    if t.used + size > Bytes.length t.present then begin
      let cap' = max (2 * Bytes.length t.present) (t.used + size) in
      let b = Bytes.make cap' '\001' in
      Bytes.blit t.present 0 b 0 t.used;
      t.present <- b
    end;
    Bytes.fill t.present t.used size '\001';
    let v = t.n in
    t.vars.(v) <- { offset = t.used; size };
    t.count.(v) <- size;
    t.assigned.(v) <- -1;
    t.used <- t.used + size;
    t.n <- t.n + 1;
    if size = 1 then begin
      (* born assigned; propagate like any other assignment *)
      t.assigned.(v) <- 0;
      Queue.add v t.queue
    end;
    v

  let value t v = t.assigned.(v)
  let is_assigned t v = t.assigned.(v) >= 0

  let mem t v x =
    let { offset; size } = t.vars.(v) in
    x >= 0 && x < size && Bytes.get t.present (offset + x) <> '\000'

  let became_assigned t v =
    (* count just hit 1: find the survivor *)
    let { offset; size } = t.vars.(v) in
    let x = ref (-1) in
    for i = 0 to size - 1 do
      if Bytes.get t.present (offset + i) <> '\000' then x := i
    done;
    t.assigned.(v) <- !x;
    t.trail <- Became_assigned v :: t.trail;
    Queue.add v t.queue

  let remove t v x =
    if mem t v x then begin
      if t.assigned.(v) = x then raise Conflict;
      Bytes.set t.present (t.vars.(v).offset + x) '\000';
      t.count.(v) <- t.count.(v) - 1;
      t.trail <- Removed (v, x) :: t.trail;
      if t.count.(v) = 0 then raise Conflict;
      if t.count.(v) = 1 && t.assigned.(v) < 0 then became_assigned t v
    end

  let assign t v x =
    if not (mem t v x) then raise Conflict;
    if t.assigned.(v) >= 0 then begin
      if t.assigned.(v) <> x then raise Conflict
    end
    else
      let { size; _ } = t.vars.(v) in
      for y = 0 to size - 1 do
        if y <> x then remove t v y
      done

  let on_assign t f = t.watchers <- t.watchers @ [ f ]
  let post_undo t f = t.trail <- Undo_fn f :: t.trail

  let propagate t =
    while not (Queue.is_empty t.queue) do
      let v = Queue.pop t.queue in
      List.iter
        (fun f ->
          t.props <- t.props + 1;
          f v)
        t.watchers
    done

  let undo_to t mark =
    Queue.clear t.queue;
    while t.trail != mark do
      match t.trail with
      | [] -> assert false (* mark is always a suffix of the trail *)
      | e :: rest ->
          t.trail <- rest;
          (match e with
          | Removed (v, x) ->
              Bytes.set t.present (t.vars.(v).offset + x) '\001';
              t.count.(v) <- t.count.(v) + 1
          | Became_assigned v -> t.assigned.(v) <- -1
          | Undo_fn f -> f ())
    done

  type result = Sat | Unsat | Budget_exhausted
  type stats = { decisions : int; conflicts : int; propagations : int }

  exception Budget

  let default_values t v = List.init t.vars.(v).size (fun i -> i)

  let solve t ?values ~order ~max_decisions ~max_conflicts () =
    let values = match values with Some f -> f | None -> default_values t in
    let decisions = ref 0 and conflicts = ref 0 in
    (* Chronological DFS.  [dfs i] assigns order.(i..); exhausting a
       node's candidate values fails the node (false), undone by the
       caller's trail mark. *)
    let rec dfs i =
      let rec next i =
        if i >= Array.length order then -1
        else if is_assigned t order.(i) then next (i + 1)
        else i
      in
      let i = next i in
      if i < 0 then true
      else
        let v = order.(i) in
        try_values v (List.filter (mem t v) (values v)) (i + 1)
    and try_values v cands i =
      match cands with
      | [] -> false
      | x :: rest ->
          incr decisions;
          if !decisions > max_decisions then raise Budget;
          let mark = t.trail in
          let ok =
            try
              assign t v x;
              propagate t;
              dfs i
            with Conflict ->
              incr conflicts;
              if !conflicts > max_conflicts then begin
                undo_to t mark;
                raise Budget
              end;
              false
          in
          if ok then true
          else begin
            undo_to t mark;
            try_values v rest i
          end
    in
    let res =
      try
        propagate t;
        if dfs 0 then Sat else Unsat
      with
      | Conflict -> Unsat
      | Budget -> Budget_exhausted
    in
    (res, { decisions = !decisions; conflicts = !conflicts; propagations = t.props })
end

module Config = Vliw_arch.Config
module Ddg = Vliw_ir.Ddg
module Edge = Vliw_ir.Edge
module Opcode = Vliw_ir.Opcode
module Scc = Vliw_ir.Scc
module Engine = Vliw_sched.Engine
module Resources = Vliw_sched.Resources
module Schedule = Vliw_sched.Schedule
module Oracle = Vliw_analysis.Oracle
module S = Solver

(* b > 0 *)
let ceil_div a b = if a >= 0 then (a + b - 1) / b else -(-a / b)

let class_index = function
  | Opcode.Int_fu -> 0
  | Opcode.Fp_fu -> 1
  | Opcode.Mem_fu -> 2

(* One potential inter-cluster transfer: the value of [cu] delivered to
   cluster [cd].  One variable per (producer, destination) is enough:
   every consumer's timeliness window shares the same lower bound (the
   producer's completion), so whenever separate copies could serve the
   consumers, the earliest of them serves all — and frees resources. *)
type copy_info = {
  cu : int;  (** producer op *)
  cd : int;  (** destination cluster *)
  cuvar : int;  (** solver var of the producer's cluster *)
  consumers : (int * int) list;  (** (consumer op, distance), cross-capable *)
  cpvar : int;  (** slot in [0, ii), or [ii] = absent *)
}

let decide cfg ddg ~latency ?(allow_cross_cluster_mem = false) ~ii ~budget () =
  if ii <= 0 then invalid_arg "Oracle.decide: ii must be positive";
  let n = Ddg.n_ops ddg in
  if n = 0 then invalid_arg "Oracle.decide: empty loop";
  let nc = cfg.Config.n_clusters in
  let width = cfg.Config.issue_width_per_cluster in
  let occ = cfg.Config.bus_occupancy in
  let nbuses = cfg.Config.n_reg_buses in
  let copy_lat = cfg.Config.reg_copy_latency in
  let absent = ii in
  let s = S.create () in
  (* --- variables ------------------------------------------------- *)
  (* Cluster variables; memory-dependence chain members share one (the
     verifier rejects split chains unless [allow_cross_cluster_mem]). *)
  let cvar = Array.make n (-1) in
  if allow_cross_cluster_mem then
    for o = 0 to n - 1 do
      cvar.(o) <- S.new_var s ~size:nc
    done
  else begin
    let comp, ncomp = Engine.memory_components ddg in
    let comp_var = Array.make (max 1 ncomp) (-1) in
    for o = 0 to n - 1 do
      let c = comp.(o) in
      if c >= 0 then begin
        if comp_var.(c) < 0 then comp_var.(c) <- S.new_var s ~size:nc;
        cvar.(o) <- comp_var.(c)
      end
      else cvar.(o) <- S.new_var s ~size:nc
    done
  end;
  let svar = Array.make n (-1) in
  for o = 0 to n - 1 do
    svar.(o) <- S.new_var s ~size:ii
  done;
  let copies = ref [] and ncopies = ref 0 in
  let copy_idx = Array.make (n * nc) (-1) in
  for u = 0 to n - 1 do
    let consumers =
      List.filter_map
        (fun (e : Edge.t) ->
          if e.Edge.kind = Edge.Reg_flow && cvar.(e.Edge.dst) <> cvar.(u) then
            Some (e.Edge.dst, e.Edge.distance)
          else None)
        (Ddg.succs ddg u)
    in
    if consumers <> [] then
      for d = 0 to nc - 1 do
        let v = S.new_var s ~size:(ii + 1) in
        copy_idx.((u * nc) + d) <- !ncopies;
        copies :=
          { cu = u; cd = d; cuvar = cvar.(u); consumers; cpvar = v }
          :: !copies;
        incr ncopies
      done
  done;
  let copies = Array.of_list (List.rev !copies) in
  let ncopies = !ncopies in
  let nvars = S.n_vars s in
  (* --- variable metadata ----------------------------------------- *)
  let var_kind = Array.make nvars (-1) in
  let var_obj = Array.make nvars (-1) in
  let var_ops = Array.make nvars [] in
  for o = n - 1 downto 0 do
    var_kind.(cvar.(o)) <- 0;
    var_ops.(cvar.(o)) <- o :: var_ops.(cvar.(o))
  done;
  for o = 0 to n - 1 do
    var_kind.(svar.(o)) <- 1;
    var_obj.(svar.(o)) <- o
  done;
  Array.iteri
    (fun i cp ->
      var_kind.(cp.cpvar) <- 2;
      var_obj.(cp.cpvar) <- i)
    copies;
  let cluster_vars = List.sort_uniq compare (Array.to_list cvar) in
  let copies_of_cv = Array.make nvars [] in
  Array.iteri
    (fun i cp ->
      let watch v =
        if not (List.mem i copies_of_cv.(v)) then
          copies_of_cv.(v) <- i :: copies_of_cv.(v)
      in
      watch cp.cuvar;
      List.iter (fun (w, _) -> watch cvar.(w)) cp.consumers)
    copies;
  Array.iteri (fun v l -> copies_of_cv.(v) <- List.rev l) copies_of_cv;
  (* --- recurrences (positive-cycle feasibility checks) ----------- *)
  let recs = Array.of_list (Scc.recurrences ddg) in
  let nrecs = Array.length recs in
  let rec_members = Array.map Array.of_list recs in
  let in_rec =
    Array.map
      (fun members ->
        let b = Array.make n false in
        Array.iter (fun o -> b.(o) <- true) members;
        b)
      rec_members
  in
  let rec_idx =
    Array.map
      (fun members ->
        let idx = Array.make n (-1) in
        Array.iteri (fun i o -> idx.(o) <- i) members;
        idx)
      rec_members
  in
  let rec_edges =
    Array.map
      (fun r ->
        List.filter
          (fun (e : Edge.t) -> r.(e.Edge.src) && r.(e.Edge.dst))
          (Ddg.edges ddg))
      in_rec
  in
  let recs_of_var = Array.make nvars [] in
  let add_rec v r =
    if not (List.mem r recs_of_var.(v)) then
      recs_of_var.(v) <- r :: recs_of_var.(v)
  in
  for r = nrecs - 1 downto 0 do
    Array.iter
      (fun o ->
        add_rec cvar.(o) r;
        add_rec svar.(o) r)
      rec_members.(r)
  done;
  Array.iter
    (fun cp ->
      for r = nrecs - 1 downto 0 do
        if
          in_rec.(r).(cp.cu)
          && List.exists (fun (w, _) -> in_rec.(r).(w)) cp.consumers
        then add_rec cp.cpvar r
      done)
    copies;
  (* --- shared mutable constraint state (trailed via post_undo) --- *)
  let ops_class =
    Array.map
      (fun (o : Vliw_ir.Operation.t) ->
        class_index (Opcode.fu_class o.Vliw_ir.Operation.opcode))
      (Ddg.ops ddg)
  in
  let cap =
    Array.of_list (List.map (Resources.fu_capacity cfg) Resources.fu_classes)
  in
  let ops_of_class = Array.make 3 [] in
  for o = n - 1 downto 0 do
    ops_of_class.(ops_class.(o)) <- o :: ops_of_class.(ops_class.(o))
  done;
  let ops_in = Array.make nc 0 in
  let class_in = Array.make_matrix 3 nc 0 in
  let copies_from = Array.make nc 0 in
  let active_copies = ref 0 in
  let un_class = Array.make 3 0 in
  Array.iter (fun k -> un_class.(k) <- un_class.(k) + 1) ops_class;
  let un_ops = ref n in
  let fu_cnt = Array.init 3 (fun _ -> Array.make_matrix nc ii 0) in
  let issue_cnt = Array.make_matrix nc ii 0 in
  let bus_cnt = Array.make ii 0 in
  let op_accounted = Array.make n false in
  let copy_active = Array.make ncopies false in
  let copy_accounted = Array.make ncopies false in
  (* Aggregate feasibility over whole clusters: every unassigned op must
     still fit some cluster's leftover class capacity and issue room. *)
  let check_residuals () =
    for k = 0 to 2 do
      let free = ref 0 in
      for c = 0 to nc - 1 do
        free := !free + max 0 ((cap.(k) * ii) - class_in.(k).(c))
      done;
      if !free < un_class.(k) then raise S.Conflict
    done;
    let free = ref 0 in
    for c = 0 to nc - 1 do
      free := !free + max 0 ((width * ii) - ops_in.(c) - copies_from.(c))
    done;
    if !free < !un_ops then raise S.Conflict
  in
  let bump_fu k c sl =
    fu_cnt.(k).(c).(sl) <- fu_cnt.(k).(c).(sl) + 1;
    S.post_undo s (fun () -> fu_cnt.(k).(c).(sl) <- fu_cnt.(k).(c).(sl) - 1);
    if fu_cnt.(k).(c).(sl) > cap.(k) then raise S.Conflict;
    if fu_cnt.(k).(c).(sl) = cap.(k) then
      List.iter
        (fun o ->
          if S.value s cvar.(o) = c && not (S.is_assigned s svar.(o)) then
            S.remove s svar.(o) sl)
        ops_of_class.(k)
  in
  let bump_issue c sl =
    issue_cnt.(c).(sl) <- issue_cnt.(c).(sl) + 1;
    S.post_undo s (fun () -> issue_cnt.(c).(sl) <- issue_cnt.(c).(sl) - 1);
    if issue_cnt.(c).(sl) > width then raise S.Conflict;
    if issue_cnt.(c).(sl) = width then begin
      for o = 0 to n - 1 do
        if S.value s cvar.(o) = c && not (S.is_assigned s svar.(o)) then
          S.remove s svar.(o) sl
      done;
      Array.iter
        (fun cp ->
          if S.value s cp.cuvar = c && not (S.is_assigned s cp.cpvar) then
            S.remove s cp.cpvar sl)
        copies
    end
  in
  (* no further transfer may start in a slot whose occupancy window
     covers a bus-saturated cycle *)
  let bump_bus sl =
    bus_cnt.(sl) <- bus_cnt.(sl) + 1;
    S.post_undo s (fun () -> bus_cnt.(sl) <- bus_cnt.(sl) - 1);
    if bus_cnt.(sl) > nbuses then raise S.Conflict;
    if bus_cnt.(sl) = nbuses then
      Array.iter
        (fun cp ->
          if not (S.is_assigned s cp.cpvar) then
            for off = 0 to occ - 1 do
              let cand = (sl - off) mod ii in
              let cand = if cand < 0 then cand + ii else cand in
              S.remove s cp.cpvar cand
            done)
        copies
  in
  let try_account_op o =
    if
      (not op_accounted.(o))
      && S.is_assigned s cvar.(o)
      && S.is_assigned s svar.(o)
    then begin
      op_accounted.(o) <- true;
      S.post_undo s (fun () -> op_accounted.(o) <- false);
      let c = S.value s cvar.(o) and sl = S.value s svar.(o) in
      bump_fu ops_class.(o) c sl;
      bump_issue c sl
    end
  in
  let account_copy i =
    let cp = copies.(i) in
    if
      (not copy_accounted.(i))
      && S.is_assigned s cp.cpvar
      && S.value s cp.cpvar < absent
    then begin
      copy_accounted.(i) <- true;
      S.post_undo s (fun () -> copy_accounted.(i) <- false);
      let sl = S.value s cp.cpvar in
      let c = S.value s cp.cuvar in
      assert (c >= 0);
      bump_issue c sl;
      for w = 0 to occ - 1 do
        bump_bus ((sl + w) mod ii)
      done
    end
  in
  let activate i =
    if not copy_active.(i) then begin
      let cp = copies.(i) in
      copy_active.(i) <- true;
      S.post_undo s (fun () -> copy_active.(i) <- false);
      incr active_copies;
      S.post_undo s (fun () -> decr active_copies);
      if !active_copies * occ > nbuses * ii then raise S.Conflict;
      let c = S.value s cp.cuvar in
      copies_from.(c) <- copies_from.(c) + 1;
      S.post_undo s (fun () -> copies_from.(c) <- copies_from.(c) - 1);
      if ops_in.(c) + copies_from.(c) > width * ii then raise S.Conflict;
      check_residuals ();
      S.remove s cp.cpvar absent
    end
  in
  let update_activity i =
    let cp = copies.(i) in
    let all_assigned =
      List.for_all (fun (w, _) -> S.is_assigned s cvar.(w)) cp.consumers
    in
    let some_in_d =
      List.exists (fun (w, _) -> S.value s cvar.(w) = cp.cd) cp.consumers
    in
    if S.is_assigned s cp.cuvar then begin
      let cu = S.value s cp.cuvar in
      if cu = cp.cd then S.assign s cp.cpvar absent
      else if some_in_d then activate i
      else if all_assigned then S.assign s cp.cpvar absent
    end
    else if all_assigned && not some_in_d then S.assign s cp.cpvar absent
  in
  let cluster_assigned v =
    let c = S.value s v in
    List.iter
      (fun o ->
        let k = ops_class.(o) in
        ops_in.(c) <- ops_in.(c) + 1;
        class_in.(k).(c) <- class_in.(k).(c) + 1;
        un_class.(k) <- un_class.(k) - 1;
        decr un_ops;
        S.post_undo s (fun () ->
            ops_in.(c) <- ops_in.(c) - 1;
            class_in.(k).(c) <- class_in.(k).(c) + (-1);
            un_class.(k) <- un_class.(k) + 1;
            incr un_ops))
      var_ops.(v);
    for k = 0 to 2 do
      if class_in.(k).(c) > cap.(k) * ii then raise S.Conflict
    done;
    if ops_in.(c) + copies_from.(c) > width * ii then raise S.Conflict;
    check_residuals ();
    List.iter try_account_op var_ops.(v);
    List.iter update_activity copies_of_cv.(v)
  in
  (* Positive-cycle check of the k-difference system restricted to one
     recurrence.  Edges whose cluster form is still open are skipped
     (sound: fewer constraints); unassigned slots use the best-case
     bound s_a - s_b >= -(ii-1), so a reported cycle is a genuine
     infeasibility even mid-search and exact on full assignments. *)
  let check_rec r =
    let idx = rec_idx.(r) in
    let m = Array.length rec_members.(r) in
    let edges = ref [] and nnodes = ref m and positive = ref false in
    let slot o = if S.is_assigned s svar.(o) then S.value s svar.(o) else -1 in
    let weight l d sa sb =
      let lo = (if sa >= 0 then sa else 0) - (if sb >= 0 then sb else ii - 1) in
      ceil_div (l - (ii * d) + lo) ii
    in
    let add a b w =
      if w > 0 then positive := true;
      edges := (a, b, w) :: !edges
    in
    List.iter
      (fun (e : Edge.t) ->
        let a = e.Edge.src and b = e.Edge.dst and d = e.Edge.distance in
        let ca = S.value s cvar.(a) and cb = S.value s cvar.(b) in
        let direct l = add idx.(a) idx.(b) (weight l d (slot a) (slot b)) in
        match e.Edge.kind with
        | Edge.Mem_flow | Edge.Mem_anti | Edge.Mem_out | Edge.Mem_unresolved
          ->
            direct 1
        | Edge.Reg_anti -> if ca >= 0 && ca = cb then direct 0
        | Edge.Reg_out -> if ca >= 0 && ca = cb then direct 1
        | Edge.Reg_flow ->
            if ca >= 0 && cb >= 0 then
              if ca = cb then direct (latency a)
              else begin
                let i = copy_idx.((a * nc) + cb) in
                let cp = copies.(i) in
                let scp =
                  if S.is_assigned s cp.cpvar && S.value s cp.cpvar < absent
                  then S.value s cp.cpvar
                  else -1
                in
                let nid = !nnodes in
                incr nnodes;
                add idx.(a) nid (weight (latency a) 0 (slot a) scp);
                add nid idx.(b) (weight copy_lat d scp (slot b))
              end)
      rec_edges.(r);
    if !positive then begin
      let nn = !nnodes in
      let dist = Array.make nn 0 in
      let es = !edges in
      let relax () =
        List.fold_left
          (fun changed (a, b, w) ->
            if dist.(a) + w > dist.(b) then begin
              dist.(b) <- dist.(a) + w;
              true
            end
            else changed)
          false es
      in
      let rec go pass = if pass > nn then true else relax () && go (pass + 1) in
      if go 0 then raise S.Conflict
    end
  in
  (* Canonical earliest-start realization of a total assignment: resolve
     each op's iteration offset k via longest paths in the exact
     k-difference system (converges — every cycle was proved
     non-positive), then shift flat times down by a multiple of II. *)
  let realize () =
    let nactive = ref 0 in
    let cp_node = Array.make (max 1 ncopies) (-1) in
    Array.iteri
      (fun i cp ->
        if S.is_assigned s cp.cpvar && S.value s cp.cpvar < absent then begin
          cp_node.(i) <- n + !nactive;
          incr nactive
        end)
      copies;
    let total = n + !nactive in
    let slot_of = Array.make total 0 in
    for o = 0 to n - 1 do
      slot_of.(o) <- S.value s svar.(o)
    done;
    Array.iteri
      (fun i cp ->
        if cp_node.(i) >= 0 then slot_of.(cp_node.(i)) <- S.value s cp.cpvar)
      copies;
    let edges = ref [] in
    let add a b l d =
      edges :=
        (a, b, ceil_div (l - (ii * d) + slot_of.(a) - slot_of.(b)) ii)
        :: !edges
    in
    List.iter
      (fun (e : Edge.t) ->
        let a = e.Edge.src and b = e.Edge.dst and d = e.Edge.distance in
        let ca = S.value s cvar.(a) and cb = S.value s cvar.(b) in
        match e.Edge.kind with
        | Edge.Mem_flow | Edge.Mem_anti | Edge.Mem_out | Edge.Mem_unresolved
          ->
            add a b 1 d
        | Edge.Reg_anti -> if ca = cb then add a b 0 d
        | Edge.Reg_out -> if ca = cb then add a b 1 d
        | Edge.Reg_flow ->
            if ca = cb then add a b (latency a) d
            else begin
              let nid = cp_node.(copy_idx.((a * nc) + cb)) in
              add a nid (latency a) 0;
              add nid b copy_lat d
            end)
      (Ddg.edges ddg);
    let k = Array.make total 0 in
    let changed = ref true and guard = ref 0 in
    while !changed do
      changed := false;
      incr guard;
      assert (!guard <= total + 2);
      List.iter
        (fun (a, b, w) ->
          if k.(a) + w > k.(b) then begin
            k.(b) <- k.(a) + w;
            changed := true
          end)
        !edges
    done;
    let t = Array.init total (fun x -> (ii * k.(x)) + slot_of.(x)) in
    let mn = Array.fold_left min max_int t in
    let shift = mn / ii * ii in
    let cluster = Array.make n 0 and start = Array.make n 0 in
    for o = 0 to n - 1 do
      cluster.(o) <- S.value s cvar.(o);
      start.(o) <- t.(o) - shift
    done;
    let cps = ref [] in
    for i = ncopies - 1 downto 0 do
      if cp_node.(i) >= 0 then begin
        let cp = copies.(i) in
        cps :=
          {
            Schedule.src_op = cp.cu;
            from_cluster = S.value s cp.cuvar;
            to_cluster = cp.cd;
            start = t.(cp_node.(i)) - shift;
          }
          :: !cps
      end
    done;
    { Schedule.ii; n_clusters = nc; cluster; start; copies = !cps }
  in
  let on_var v =
    (match var_kind.(v) with
    | 0 -> cluster_assigned v
    | 1 -> try_account_op var_obj.(v)
    | _ -> account_copy var_obj.(v));
    List.iter check_rec recs_of_var.(v)
  in
  S.on_assign s on_var;
  (* --- decision order and value orders --------------------------- *)
  let anchor = ref (-1) in
  let order =
    let seen = Array.make nvars false in
    let out = ref [] in
    let push v =
      if not seen.(v) then begin
        seen.(v) <- true;
        if var_kind.(v) = 1 && !anchor < 0 then anchor := v;
        out := v :: !out
      end
    in
    Array.iter (fun members -> Array.iter (fun o -> push cvar.(o)) members)
      rec_members;
    let rest = List.filter (fun v -> not seen.(v)) cluster_vars in
    List.iter push
      (List.sort
         (fun a b ->
           let la = List.length var_ops.(a) and lb = List.length var_ops.(b) in
           if la <> lb then compare lb la else compare a b)
         rest);
    Array.iter (fun members -> Array.iter (fun o -> push svar.(o)) members)
      rec_members;
    for o = 0 to n - 1 do
      push svar.(o)
    done;
    Array.iter (fun cp -> push cp.cpvar) copies;
    Array.of_list (List.rev !out)
  in
  let nothing_placed () =
    let ok = ref true in
    for o = 0 to n - 1 do
      if S.is_assigned s svar.(o) then ok := false
    done;
    Array.iter
      (fun cp ->
        if S.is_assigned s cp.cpvar && S.value s cp.cpvar < absent then
          ok := false)
      copies;
    !ok
  in
  let values v =
    match var_kind.(v) with
    | 0 ->
        (* value symmetry: clusters are interchangeable, so the next
           undecided variable need only try used labels plus one *)
        let mx =
          List.fold_left
            (fun acc w ->
              if S.is_assigned s w then max acc (S.value s w) else acc)
            (-1) cluster_vars
        in
        List.init (min nc (mx + 2)) (fun i -> i)
    | 1 ->
        (* shift symmetry: pin the first placement to slot 0 *)
        if v = !anchor && nothing_placed () then [ 0 ]
        else List.init ii (fun i -> i)
    | _ -> List.init (ii + 1) (fun i -> i)
  in
  let result, stats =
    S.solve s ~values ~order ~max_decisions:budget ~max_conflicts:budget ()
  in
  match result with
  | S.Sat -> (Oracle.Feasible (realize ()), stats)
  | S.Unsat -> (Oracle.Infeasible, stats)
  | S.Budget_exhausted -> (Oracle.Out_of_budget, stats)
