module Edge = Vliw_ir.Edge
module Operation = Vliw_ir.Operation
module Opcode = Vliw_ir.Opcode
module Mem_access = Vliw_ir.Mem_access
module Ddg = Vliw_ir.Ddg
module Mii = Vliw_ir.Mii
module D = Diagnostic

(* Iteration distances above this are flagged as absurd: no unroll
   factor or recurrence in the suite comes close. *)
let max_sane_distance = 64

(* ------------------------------------------------------- structural *)

let edge_where where (e : Edge.t) =
  Printf.sprintf "%s/edge n%d->n%d(%s,d%d)" where e.src e.dst
    (Edge.kind_to_string e.kind) e.distance

let lint_ops ~where ops =
  let n = Array.length ops in
  let diags = ref [] in
  let add d = diags := d :: !diags in
  Array.iteri
    (fun i (o : Operation.t) ->
      let w = Printf.sprintf "%s/n%d" where o.Operation.id in
      if o.Operation.id <> i then
        add
          (D.error ~pass:"ddg/op-id" ~where:w
             "operation id %d at index %d: ids must be dense 0..%d"
             o.Operation.id i (n - 1));
      if Opcode.equal o.Operation.opcode Opcode.Copy then
        add
          (D.error ~pass:"ddg/copy-opcode" ~where:w
             "Copy opcode in a source DDG: copies are scheduler artefacts");
      match (Opcode.is_memory o.Operation.opcode, o.Operation.mem) with
      | true, None ->
          add
            (D.error ~pass:"ddg/mem-descriptor" ~where:w
               "%s without a memory-access descriptor"
               (Opcode.to_string o.Operation.opcode))
      | false, Some _ ->
          add
            (D.error ~pass:"ddg/mem-descriptor" ~where:w
               "non-memory %s carries a memory-access descriptor"
               (Opcode.to_string o.Operation.opcode))
      | false, None -> ()
      | true, Some m ->
          let g = m.Mem_access.granularity in
          if not (List.mem g [ 1; 2; 4; 8 ]) then
            add
              (D.error ~pass:"ddg/mem-descriptor" ~where:w
                 "granularity %dB is not an element size (1/2/4/8)" g);
          if m.Mem_access.footprint < 0 then
            add
              (D.error ~pass:"ddg/mem-descriptor" ~where:w
                 "negative footprint %d" m.Mem_access.footprint);
          if m.Mem_access.footprint > 0 && m.Mem_access.footprint < g then
            add
              (D.error ~pass:"ddg/mem-descriptor" ~where:w
                 "footprint %dB smaller than one %dB element"
                 m.Mem_access.footprint g);
          if m.Mem_access.offset < 0 then
            add
              (D.error ~pass:"ddg/mem-descriptor" ~where:w
                 "negative base offset %d" m.Mem_access.offset);
          if
            (not m.Mem_access.indirect)
            && m.Mem_access.stride <> 0
            && m.Mem_access.stride mod g <> 0
          then
            add
              (D.info ~pass:"ddg/mem-stride" ~where:w
                 "stride %dB not a multiple of the %dB granularity"
                 m.Mem_access.stride g))
    ops;
  List.rev !diags

let lint_edges ~where n edges =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let in_range v = v >= 0 && v < n in
  List.iter
    (fun (e : Edge.t) ->
      let w = edge_where where e in
      if not (in_range e.src && in_range e.dst) then
        add
          (D.error ~pass:"ddg/endpoint" ~where:w
             "endpoint outside the %d-operation loop body" n);
      if e.distance < 0 then
        add (D.error ~pass:"ddg/negative-distance" ~where:w "distance %d < 0" e.distance)
      else if e.distance > max_sane_distance then
        add
          (D.warn ~pass:"ddg/absurd-distance" ~where:w
             "distance %d exceeds any plausible unroll/recurrence span (> %d)"
             e.distance max_sane_distance);
      if e.src = e.dst && e.distance = 0 then
        add
          (D.error ~pass:"ddg/self-zero" ~where:w
             "self-edge with distance 0 depends on its own result in the \
              same iteration"))
    edges;
  (* Duplicate / subsumed edges: group by (src, dst, kind). *)
  let groups = Hashtbl.create 16 in
  List.iter
    (fun (e : Edge.t) ->
      let key = (e.src, e.dst, e.kind) in
      Hashtbl.replace groups key
        (e :: Option.value ~default:[] (Hashtbl.find_opt groups key)))
    edges;
  Hashtbl.iter
    (fun _ es ->
      match es with
      | [] | [ _ ] -> ()
      | es ->
          let es =
            List.sort (fun (a : Edge.t) (b : Edge.t) -> compare a.distance b.distance) es
          in
          let min_d = (List.hd es).Edge.distance in
          let seen = Hashtbl.create 4 in
          List.iter
            (fun (e : Edge.t) ->
              let w = edge_where where e in
              if Hashtbl.mem seen e.distance then
                add
                  (D.error ~pass:"ddg/duplicate-edge" ~where:w
                     "edge duplicated verbatim")
              else begin
                Hashtbl.add seen e.distance ();
                if e.distance > min_d then
                  add
                    (D.warn ~pass:"ddg/redundant-edge" ~where:w
                       "subsumed by the same dependence at distance %d" min_d)
              end)
            es)
    groups;
  (* Operations with no incident edge cannot belong to the loop body's
     dataflow (a single-operation loop is its own body). *)
  if n > 1 then begin
    let touched = Array.make n false in
    List.iter
      (fun (e : Edge.t) ->
        if in_range e.src then touched.(e.src) <- true;
        if in_range e.dst then touched.(e.dst) <- true)
      edges;
    Array.iteri
      (fun v t ->
        if not t then
          add
            (D.warn ~pass:"ddg/unreachable" ~where:(Printf.sprintf "%s/n%d" where v)
               "operation has no dependence edge: unreachable from the \
                loop body's dataflow"))
      touched
  end;
  List.rev !diags

(* ----------------------------------------- independent RecMII check *)

(* Kosaraju SCCs over the raw edge list — deliberately not
   {!Vliw_ir.Scc}, so the comparison below exercises two independent
   implementations. *)
let sccs n edges =
  let succs = Array.make n [] and preds = Array.make n [] in
  List.iter
    (fun (e : Edge.t) ->
      succs.(e.src) <- e.dst :: succs.(e.src);
      preds.(e.dst) <- e.src :: preds.(e.dst))
    edges;
  let visited = Array.make n false in
  let order = ref [] in
  let rec dfs1 v =
    if not visited.(v) then begin
      visited.(v) <- true;
      List.iter dfs1 succs.(v);
      order := v :: !order
    end
  in
  for v = 0 to n - 1 do
    dfs1 v
  done;
  let comp = Array.make n (-1) in
  let rec dfs2 v c =
    if comp.(v) < 0 then begin
      comp.(v) <- c;
      List.iter (fun u -> dfs2 u c) preds.(v)
    end
  in
  let c = ref 0 in
  List.iter
    (fun v ->
      if comp.(v) < 0 then begin
        dfs2 v !c;
        incr c
      end)
    !order;
  comp

(* Bellman-Ford longest-path feasibility: the constraint system
   [t(dst) >= t(src) + lat - ii * distance] over [members] is
   satisfiable iff no positive-weight cycle exists. *)
let feasible ~members ~edges ~latency ~ii =
  let n = Array.length members in
  let pot = Array.map (fun _ -> 0) members in
  let index = Hashtbl.create 16 in
  Array.iteri (fun i v -> Hashtbl.add index v i) members;
  let weight (e : Edge.t) =
    Ddg.effective_latency ~latency e - (ii * e.Edge.distance)
  in
  let relax () =
    List.fold_left
      (fun changed (e : Edge.t) ->
        let s = Hashtbl.find index e.src and d = Hashtbl.find index e.dst in
        let cand = pot.(s) + weight e in
        if cand > pot.(d) then begin
          pot.(d) <- cand;
          true
        end
        else changed)
      false edges
  in
  let changed = ref true in
  let rounds = ref 0 in
  while !changed && !rounds <= n do
    changed := relax ();
    incr rounds
  done;
  not !changed

let recurrence_components n edges =
  let comp = sccs n edges in
  let members = Hashtbl.create 8 in
  Array.iteri
    (fun v c ->
      Hashtbl.replace members c
        (v :: Option.value ~default:[] (Hashtbl.find_opt members c)))
    comp;
  let self_edge v =
    List.exists (fun (e : Edge.t) -> e.src = v && e.dst = v) edges
  in
  Hashtbl.fold
    (fun c vs acc ->
      match vs with
      | [ v ] when not (self_edge v) -> acc
      | vs ->
          let vs = Array.of_list vs in
          let inner =
            List.filter
              (fun (e : Edge.t) -> comp.(e.src) = c && comp.(e.dst) = c)
              edges
          in
          (vs, inner) :: acc)
    members []

exception Zero_cycle

let independent_rec_mii_raw n edges ~latency =
  let recs = recurrence_components n edges in
  List.fold_left
    (fun acc (members, inner) ->
      (* A cycle of zero-distance edges with positive total latency is
         infeasible at any II: detectable as infeasibility over the
         distance-0 subgraph (where the II term vanishes). *)
      let zero_edges =
        List.filter (fun (e : Edge.t) -> e.Edge.distance = 0) inner
      in
      if not (feasible ~members ~edges:zero_edges ~latency ~ii:1) then
        raise Zero_cycle;
      let hi =
        1
        + List.fold_left
            (fun s e -> s + max 0 (Ddg.effective_latency ~latency e))
            0 inner
      in
      let rec search lo hi =
        if lo >= hi then lo
        else
          let mid = (lo + hi) / 2 in
          if feasible ~members ~edges:inner ~latency ~ii:mid then
            search lo mid
          else search (mid + 1) hi
      in
      max acc (search 1 hi))
    1 recs

let independent_rec_mii ddg ~latency =
  match
    independent_rec_mii_raw (Ddg.n_ops ddg) (Ddg.edges ddg) ~latency
  with
  | ii -> ii
  | exception Zero_cycle ->
      invalid_arg "Lint_ddg.independent_rec_mii: zero-distance positive cycle"

let lint_mii ~where n ops edges ~latency =
  let latency =
    match latency with
    | Some f -> f
    | None -> fun i -> Opcode.default_latency ops.(i).Operation.opcode
  in
  match independent_rec_mii_raw n edges ~latency with
  | exception Zero_cycle ->
      [
        D.error ~pass:"ddg/zero-cycle" ~where
          "a zero-distance cycle has positive total latency: no II can \
           schedule this loop";
      ]
  | ind -> (
      match Mii.rec_mii (Ddg.make ops edges) ~latency with
      | exception Mii.Infeasible ->
          [
            D.error ~pass:"ddg/zero-cycle" ~where
              "Mii.rec_mii raised Infeasible on a graph the independent \
               check accepts (RecMII %d)"
              ind;
          ]
      | lib when lib <> ind ->
          [
            D.error ~pass:"ddg/recmii" ~where
              "Mii.rec_mii = %d but the independent recurrence check \
               computes %d"
              lib ind;
          ]
      | _ -> [])

(* ------------------------------------------------------ entry points *)

let lint_raw ?latency ?(where = "ddg") ops edges =
  let n = Array.length ops in
  let structural = lint_ops ~where ops @ lint_edges ~where n edges in
  (* The semantic passes assume a well-formed graph. *)
  if D.has_errors structural then structural
  else structural @ lint_mii ~where n ops edges ~latency

let lint ?latency ?where ddg =
  lint_raw ?latency ?where (Ddg.ops ddg) (Ddg.edges ddg)
