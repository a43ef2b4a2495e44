module Config = Vliw_arch.Config
module Ddg = Vliw_ir.Ddg
module Edge = Vliw_ir.Edge
module Opcode = Vliw_ir.Opcode
module Scc = Vliw_ir.Scc
module Engine = Vliw_sched.Engine
module Resources = Vliw_sched.Resources
module Schedule = Vliw_sched.Schedule
module S = Cpsolver

type decision = Feasible of Schedule.t | Infeasible | Out_of_budget

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
  consumers : int array;  (** consumer ops, cross-capable *)
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
            Some e.Edge.dst
          else None)
        (Ddg.succs ddg u)
    in
    if consumers <> [] then
      for d = 0 to nc - 1 do
        let v = S.new_var s ~size:(ii + 1) in
        copy_idx.((u * nc) + d) <- !ncopies;
        copies :=
          {
            cu = u;
            cd = d;
            cuvar = cvar.(u);
            consumers = Array.of_list consumers;
            cpvar = v;
          }
          :: !copies;
        incr ncopies
      done
  done;
  let copies = Array.of_list (List.rev !copies) in
  let ncopies = !ncopies in
  let nvars = S.n_vars s in
  (* Every variable exists: the assignment array stays valid from here. *)
  let asg = S.assignment s in
  let placed cp = asg.(cp.cpvar) >= 0 && asg.(cp.cpvar) < absent in
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
  let var_ops = Array.map Array.of_list var_ops in
  let cluster_vars = List.sort_uniq compare (Array.to_list cvar) in
  let copies_of_cv = Array.make nvars [] in
  Array.iteri
    (fun i cp ->
      let watch v =
        if not (List.mem i copies_of_cv.(v)) then
          copies_of_cv.(v) <- i :: copies_of_cv.(v)
      in
      watch cp.cuvar;
      Array.iter (fun w -> watch cvar.(w)) cp.consumers)
    copies;
  let copies_of_cv = Array.map (fun l -> Array.of_list (List.rev l)) copies_of_cv in
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
        Array.of_list
          (List.filter
             (fun (e : Edge.t) -> r.(e.Edge.src) && r.(e.Edge.dst))
             (Ddg.edges ddg)))
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
          && Array.exists (fun w -> in_rec.(r).(w)) cp.consumers
        then add_rec cp.cpvar r
      done)
    copies;
  let recs_of_var = Array.map Array.of_list recs_of_var in
  (* --- constraint state: trailed solver cells -------------------- *)
  let ops_class =
    Array.map
      (fun (o : Vliw_ir.Operation.t) ->
        class_index (Opcode.fu_class o.Vliw_ir.Operation.opcode))
      (Ddg.ops ddg)
  in
  let cap =
    Array.of_list (List.map (Resources.fu_capacity cfg) Resources.fu_classes)
  in
  let ops_of_class =
    Array.init 3 (fun k ->
        Array.of_list (List.filter (fun o -> ops_class.(o) = k) (List.init n Fun.id)))
  in
  (* per-cluster loads; the unassigned counts are the class totals minus
     the loads summed over clusters *)
  let ops_in = S.new_cells s nc in
  let class_in = S.new_cells s (3 * nc) (* k * nc + c *) in
  let copies_from = S.new_cells s nc in
  let active_copies = S.new_cells s 1 in
  let fu_cnt = S.new_cells s (3 * nc * ii) (* (k * nc + c) * ii + slot *) in
  let issue_cnt = S.new_cells s (nc * ii) (* c * ii + slot *) in
  let bus_cnt = S.new_cells s ii in
  let op_accounted = S.new_cells s n in
  let copy_active = S.new_cells s ncopies in
  let copy_accounted = S.new_cells s ncopies in
  let bump cell =
    let x = S.get s cell + 1 in
    S.set s cell x;
    x
  in
  (* Aggregate feasibility over whole clusters: every unassigned op must
     still fit some cluster's leftover class capacity and issue room. *)
  let check_residuals () =
    for k = 0 to 2 do
      let free = ref 0 and unplaced = ref (Array.length ops_of_class.(k)) in
      for c = 0 to nc - 1 do
        let used = S.get s (class_in + (k * nc) + c) in
        if used < cap.(k) * ii then free := !free + (cap.(k) * ii) - used;
        unplaced := !unplaced - used
      done;
      if !free < !unplaced then raise S.Conflict
    done;
    let free = ref 0 and unplaced = ref n in
    for c = 0 to nc - 1 do
      let used = S.get s (ops_in + c) in
      let room = (width * ii) - used - S.get s (copies_from + c) in
      if room > 0 then free := !free + room;
      unplaced := !unplaced - used
    done;
    if !free < !unplaced then raise S.Conflict
  in
  let bump_fu k c sl =
    let cnt = bump (fu_cnt + (((k * nc) + c) * ii) + sl) in
    if cnt > cap.(k) then raise S.Conflict;
    if cnt = cap.(k) then begin
      let os = ops_of_class.(k) in
      for j = 0 to Array.length os - 1 do
        let o = os.(j) in
        if asg.(cvar.(o)) = c && asg.(svar.(o)) < 0 then S.remove s svar.(o) sl
      done
    end
  in
  let bump_issue c sl =
    let cnt = bump (issue_cnt + (c * ii) + sl) in
    if cnt > width then raise S.Conflict;
    if cnt = width then begin
      for o = 0 to n - 1 do
        if asg.(cvar.(o)) = c && asg.(svar.(o)) < 0 then S.remove s svar.(o) sl
      done;
      for i = 0 to ncopies - 1 do
        let cp = copies.(i) in
        if asg.(cp.cuvar) = c && asg.(cp.cpvar) < 0 then S.remove s cp.cpvar sl
      done
    end
  in
  (* no further transfer may start in a slot whose occupancy window
     covers a bus-saturated cycle *)
  let bump_bus sl =
    let cnt = bump (bus_cnt + sl) in
    if cnt > nbuses then raise S.Conflict;
    if cnt = nbuses then
      for i = 0 to ncopies - 1 do
        let cp = copies.(i) in
        if asg.(cp.cpvar) < 0 then
          for off = 0 to occ - 1 do
            let cand = (sl - off) mod ii in
            let cand = if cand < 0 then cand + ii else cand in
            S.remove s cp.cpvar cand
          done
      done
  in
  let try_account_op o =
    if
      S.get s (op_accounted + o) = 0
      && asg.(cvar.(o)) >= 0
      && asg.(svar.(o)) >= 0
    then begin
      S.set s (op_accounted + o) 1;
      let c = asg.(cvar.(o)) and sl = asg.(svar.(o)) in
      bump_fu ops_class.(o) c sl;
      bump_issue c sl
    end
  in
  let account_copy i =
    let cp = copies.(i) in
    if S.get s (copy_accounted + i) = 0 && placed cp then begin
      S.set s (copy_accounted + i) 1;
      let sl = asg.(cp.cpvar) in
      let c = asg.(cp.cuvar) in
      assert (c >= 0);
      bump_issue c sl;
      for w = 0 to occ - 1 do
        bump_bus ((sl + w) mod ii)
      done
    end
  in
  let activate i =
    if S.get s (copy_active + i) = 0 then begin
      let cp = copies.(i) in
      S.set s (copy_active + i) 1;
      if bump active_copies * occ > nbuses * ii then raise S.Conflict;
      let c = asg.(cp.cuvar) in
      if S.get s (ops_in + c) + bump (copies_from + c) > width * ii then
        raise S.Conflict;
      check_residuals ();
      S.remove s cp.cpvar absent
    end
  in
  let update_activity i =
    let cp = copies.(i) in
    let all_assigned = ref true and some_in_d = ref false in
    for j = 0 to Array.length cp.consumers - 1 do
      let c = asg.(cvar.(cp.consumers.(j))) in
      if c < 0 then all_assigned := false
      else if c = cp.cd then some_in_d := true
    done;
    let cu = asg.(cp.cuvar) in
    if cu >= 0 then begin
      if cu = cp.cd then S.assign s cp.cpvar absent
      else if !some_in_d then activate i
      else if !all_assigned then S.assign s cp.cpvar absent
    end
    else if !all_assigned && not !some_in_d then S.assign s cp.cpvar absent
  in
  let cluster_assigned v =
    let c = asg.(v) and os = var_ops.(v) in
    for j = 0 to Array.length os - 1 do
      ignore (bump (ops_in + c));
      ignore (bump (class_in + (ops_class.(os.(j)) * nc) + c))
    done;
    for k = 0 to 2 do
      if S.get s (class_in + (k * nc) + c) > cap.(k) * ii then raise S.Conflict
    done;
    if S.get s (ops_in + c) + S.get s (copies_from + c) > width * ii then
      raise S.Conflict;
    check_residuals ();
    Array.iter try_account_op os;
    Array.iter update_activity copies_of_cv.(v)
  in
  (* Positive-cycle check of the k-difference system restricted to one
     recurrence.  Edges whose cluster form is still open are skipped
     (sound: fewer constraints); unassigned slots use the best-case
     bound s_a - s_b >= -(ii-1), so a reported cycle is a genuine
     infeasibility even mid-search and exact on full assignments.  The
     graph is built in [ea]/[eb]/[ew] (one node per member, plus one per
     cross-cluster flow edge's copy), [top] holding the edge and node
     counts.  A positive cycle keeps every one of nn+1 Bellman–Ford
     passes changing; without one, a pass changes nothing by the nn-th,
     whatever the edge order. *)
  let max_edges =
    Array.fold_left (fun acc es -> max acc (Array.length es)) 0 rec_edges
  in
  let ea = Array.make (2 * max_edges) 0 in
  let eb = Array.make (2 * max_edges) 0 in
  let ew = Array.make (2 * max_edges) 0 in
  let dist = Array.make (n + max_edges) 0 in
  let top = Array.make 2 0 in
  let add a b l d sa sb =
    let lo = (if sa >= 0 then sa else 0) - if sb >= 0 then sb else ii - 1 in
    let w = ceil_div (l - (ii * d) + lo) ii in
    let k = top.(0) in
    ea.(k) <- a;
    eb.(k) <- b;
    ew.(k) <- w;
    top.(0) <- k + 1
  in
  let check_rec r =
    let idx = rec_idx.(r) and es = rec_edges.(r) in
    top.(0) <- 0;
    top.(1) <- Array.length rec_members.(r);
    for j = 0 to Array.length es - 1 do
      let e = es.(j) in
      let a = e.Edge.src and b = e.Edge.dst and d = e.Edge.distance in
      let ca = asg.(cvar.(a)) and cb = asg.(cvar.(b)) in
      let sa = asg.(svar.(a)) and sb = asg.(svar.(b)) in
      match e.Edge.kind with
      | Edge.Mem_flow | Edge.Mem_anti | Edge.Mem_out | Edge.Mem_unresolved ->
          add idx.(a) idx.(b) 1 d sa sb
      | Edge.Reg_anti -> if ca >= 0 && ca = cb then add idx.(a) idx.(b) 0 d sa sb
      | Edge.Reg_out -> if ca >= 0 && ca = cb then add idx.(a) idx.(b) 1 d sa sb
      | Edge.Reg_flow ->
          if ca >= 0 && cb >= 0 then
            if ca = cb then add idx.(a) idx.(b) (latency a) d sa sb
            else begin
              let cp = copies.(copy_idx.((a * nc) + cb)) in
              let scp = if placed cp then asg.(cp.cpvar) else -1 in
              let nid = top.(1) in
              top.(1) <- nid + 1;
              add idx.(a) nid (latency a) 0 sa scp;
              add nid idx.(b) copy_lat d scp sb
            end
    done;
    let ne = top.(0) and nn = top.(1) in
    Array.fill dist 0 nn 0;
    let changed = ref true and pass = ref 0 in
    while !changed && !pass <= nn do
      changed := false;
      for k = 0 to ne - 1 do
        let w = dist.(ea.(k)) + ew.(k) in
        if w > dist.(eb.(k)) then begin
          dist.(eb.(k)) <- w;
          changed := true
        end
      done;
      incr pass
    done;
    if !changed then raise S.Conflict
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
        if placed cp then begin
          cp_node.(i) <- n + !nactive;
          incr nactive
        end)
      copies;
    let total = n + !nactive in
    let slot_of = Array.make total 0 in
    for o = 0 to n - 1 do
      slot_of.(o) <- asg.(svar.(o))
    done;
    Array.iteri
      (fun i cp -> if cp_node.(i) >= 0 then slot_of.(cp_node.(i)) <- asg.(cp.cpvar))
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
        let ca = asg.(cvar.(a)) and cb = asg.(cvar.(b)) in
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
      cluster.(o) <- asg.(cvar.(o));
      start.(o) <- t.(o) - shift
    done;
    let cps = ref [] in
    for i = ncopies - 1 downto 0 do
      if cp_node.(i) >= 0 then begin
        let cp = copies.(i) in
        cps :=
          {
            Schedule.src_op = cp.cu;
            from_cluster = asg.(cp.cuvar);
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
    Array.iter check_rec recs_of_var.(v)
  in
  S.on_assign s on_var;
  (* --- decision order and value bounds --------------------------- *)
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
           let la = Array.length var_ops.(a) and lb = Array.length var_ops.(b) in
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
  let anchor = !anchor in
  let cluster_vars = Array.of_list cluster_vars in
  let nothing_placed () =
    let rec ops o = o >= n || (asg.(svar.(o)) < 0 && ops (o + 1)) in
    let rec cps i = i >= ncopies || ((not (placed copies.(i))) && cps (i + 1)) in
    ops 0 && cps 0
  in
  let values v =
    match var_kind.(v) with
    | 0 ->
        (* value symmetry: clusters are interchangeable, so the next
           undecided variable need only try used labels plus one *)
        let mx = ref (-1) in
        for j = 0 to Array.length cluster_vars - 1 do
          if asg.(cluster_vars.(j)) > !mx then mx := asg.(cluster_vars.(j))
        done;
        if !mx + 2 < nc then !mx + 2 else nc
    | 1 ->
        (* shift symmetry: pin the first placement to slot 0 *)
        if v = anchor && nothing_placed () then 1 else ii
    | _ -> ii + 1
  in
  let result, stats =
    S.solve s ~values ~order ~max_decisions:budget ~max_conflicts:budget ()
  in
  match result with
  | S.Sat -> (Feasible (realize ()), stats)
  | S.Unsat -> (Infeasible, stats)
  | S.Budget_exhausted -> (Out_of_budget, stats)

(* ------------------------------------------------------------------ *)

type verdict = Optimal | Hardware_bound | Heuristic_gap | Unknown

let verdict_to_string = function
  | Optimal -> "optimal"
  | Hardware_bound -> "hardware-bound"
  | Heuristic_gap -> "heuristic-gap"
  | Unknown -> "unknown(budget)"

type probe = { p_ii : int; p_sat : decision; p_stats : S.stats }

type certification = {
  floor : int;
  heuristic_ii : int;
  minimal_ii : int option;
  infeasible_below : int;
  verdict : verdict;
  witness : Schedule.t option;
  witness_diags : Diagnostic.t list;
  probes : probe list;
  decisions : int;
  conflicts : int;
}

let default_budget = 300_000

(* A certified lower bound for the oracle's problem.  Resources.mii is
   NOT one: its RecMII assumes every recurrence edge constrains the
   schedule, but cross-cluster Reg_anti/Reg_out dependences are
   unconstrained in this machine model, so a recurrence containing them
   can legally be split below RecMII.  Only cycles of flow and memory
   edges survive clustering (copies make flow edges longer, never
   shorter; memory edges keep their latency in every placement). *)
let lower_bound cfg ddg ~latency =
  let kept =
    List.filter
      (fun (e : Edge.t) ->
        match e.Edge.kind with
        | Edge.Reg_anti | Edge.Reg_out -> false
        | Edge.Reg_flow | Edge.Mem_flow | Edge.Mem_anti | Edge.Mem_out
        | Edge.Mem_unresolved ->
            true)
      (Ddg.edges ddg)
  in
  max
    (Resources.res_mii cfg ddg)
    (Vliw_ir.Mii.rec_mii (Ddg.make (Ddg.ops ddg) kept) ~latency)

let certify cfg ddg ~latency ?(allow_cross_cluster_mem = false)
    ?(budget = default_budget) ~heuristic_ii () =
  let floor = min (lower_bound cfg ddg ~latency) heuristic_ii in
  let probes = ref [] and dec = ref 0 and conf = ref 0 in
  let finish ~minimal ~infeasible_below ~verdict ~witness ~witness_diags =
    {
      floor;
      heuristic_ii;
      minimal_ii = minimal;
      infeasible_below;
      verdict;
      witness;
      witness_diags;
      probes = List.rev !probes;
      decisions = !dec;
      conflicts = !conf;
    }
  in
  let module Cancel = Vliw_parallel.Cancel in
  let stage_of ii =
    Printf.sprintf "oracle probe ii=%d (floor %d, minimum >= %d proven)" ii
      floor ii
  in
  let rec probe ii =
    if ii >= heuristic_ii then
      finish ~minimal:(Some heuristic_ii) ~infeasible_below:heuristic_ii
        ~verdict:(if heuristic_ii = floor then Optimal else Hardware_bound)
        ~witness:None ~witness_diags:[]
    else begin
      (* A request deadline reuses the solver's own budget machinery: cap
         this probe's decision budget by the token's remaining work units
         so cancellation lands on a deterministic solver decision count,
         never a wall-clock instant.  [max 1] keeps the probe well-formed
         when the token is already dry — it exhausts immediately. *)
      let effective_budget =
        match Cancel.remaining () with
        | None -> budget
        | Some r -> min budget (max 1 r)
      in
      Cancel.set_stage (stage_of ii);
      let d, st =
        decide cfg ddg ~latency ~allow_cross_cluster_mem ~ii
          ~budget:effective_budget ()
      in
      probes := { p_ii = ii; p_sat = d; p_stats = st } :: !probes;
      dec := !dec + st.S.decisions;
      conf := !conf + st.S.conflicts;
      (* Completed search effort counts against the deadline whatever the
         probe concluded; the check below decides whether to continue. *)
      Cancel.charge (st.S.decisions + st.S.conflicts);
      match d with
      | Infeasible ->
          Cancel.check ~stage:(stage_of (ii + 1)) ();
          probe (ii + 1)
      | Out_of_budget when effective_budget < budget ->
          (* The deadline, not the oracle's own budget, was the binding
             constraint: surface it as a cancellation so the service can
             report "timeout" with this probe as partial attribution. *)
          Cancel.cancel ~stage:(stage_of ii) ()
      | Out_of_budget ->
          finish ~minimal:None ~infeasible_below:ii ~verdict:Unknown
            ~witness:None ~witness_diags:[]
      | Feasible w ->
          let diags =
            Verify_schedule.verify cfg ddg ~latency ~allow_cross_cluster_mem
              ~where:"oracle" w
          in
          finish ~minimal:(Some ii) ~infeasible_below:ii ~verdict:Heuristic_gap
            ~witness:(Some w) ~witness_diags:diags
    end
  in
  probe floor

let sound c =
  (match c.minimal_ii with Some m -> m <= c.heuristic_ii | None -> true)
  && Diagnostic.n_errors c.witness_diags = 0
