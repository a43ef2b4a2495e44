module Access = Vliw_arch.Access
module Config = Vliw_arch.Config
module Ddg = Vliw_ir.Ddg
module Loop = Vliw_ir.Loop
module Mem_access = Vliw_ir.Mem_access
module Operation = Vliw_ir.Operation
module Pipeline = Vliw_core.Pipeline
module Schedule = Vliw_sched.Schedule
module Stats = Vliw_sim.Stats
module Layout = Vliw_workloads.Layout
module D = Diagnostic

(* ----------------------------------------------- congruence lattice *)

module Lattice = struct
  (* A set of residues modulo [m], as a bool array of length [m].  The
     moduli in play are tiny (n_clusters * interleaving_factor = 16 on
     the default machine), so the dense representation is both the
     simplest and the fastest; elements are immutable after
     construction. *)
  type t = { m : int; bits : bool array }

  let check_modulus m =
    if m < 1 then invalid_arg "Locality.Lattice: modulus < 1"

  let bot ~modulus =
    check_modulus modulus;
    { m = modulus; bits = Array.make modulus false }

  let reduce m r =
    let r = r mod m in
    if r < 0 then r + m else r

  let of_residue ~modulus r =
    check_modulus modulus;
    let bits = Array.make modulus false in
    bits.(reduce modulus r) <- true;
    { m = modulus; bits }

  let same_modulus a b =
    if a.m <> b.m then invalid_arg "Locality.Lattice: modulus mismatch"

  let join a b =
    same_modulus a b;
    { m = a.m; bits = Array.init a.m (fun i -> a.bits.(i) || b.bits.(i)) }

  (* The chain [bot <= ... <= top] has length at most [m], so the join
     itself is a terminating widening; kept as a separate entry point so
     the interface (and the property tests) state the contract. *)
  let widen = join

  let leq a b =
    same_modulus a b;
    let ok = ref true in
    Array.iteri (fun i v -> if v && not b.bits.(i) then ok := false) a.bits;
    !ok

  let equal a b = a.m = b.m && a.bits = b.bits
  let mem t r = t.bits.(reduce t.m r)

  let step_closure t step =
    let step = reduce t.m step in
    if step = 0 then t
    else begin
      (* Mark the forward orbit of every member; each orbit is the coset
         of the subgroup generated by [step], so the loop is linear in
         the modulus. *)
      let bits = Array.copy t.bits in
      Array.iteri
        (fun i v ->
          if v then begin
            let r = ref (reduce t.m (i + step)) in
            while not bits.(!r) do
              bits.(!r) <- true;
              r := reduce t.m (!r + step)
            done
          end)
        t.bits;
      { t with bits }
    end

  let residues t =
    let acc = ref [] in
    for i = t.m - 1 downto 0 do
      if t.bits.(i) then acc := i :: !acc
    done;
    !acc

  let cardinal t =
    Array.fold_left (fun acc v -> if v then acc + 1 else acc) 0 t.bits
end

(* -------------------------------------------------- transfer function *)

let locality_modulus (cfg : Config.t) =
  cfg.Config.n_clusters * cfg.Config.interleaving_factor

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

(* Footprint of a descriptor as the address generator sees it: 0 means
   "unbounded", which Layout maps to its whole symbol space — any
   multiple of the modulus behaves identically, so represent it as 0 and
   let [gcd] ignore it. *)
let effective_footprint (m : Mem_access.t) =
  if m.Mem_access.footprint > 0 then m.Mem_access.footprint else 0

let op_stream cfg layout (m : Mem_access.t) =
  let modulus = locality_modulus cfg in
  let base = Layout.base_of layout m in
  if m.Mem_access.indirect then
    (* Indirect walk: addresses are [base + k * granularity] for slot
       indices k below footprint/granularity — a subset of the
       granularity-step closure of the base. *)
    Lattice.step_closure
      (Lattice.of_residue ~modulus base)
      m.Mem_access.granularity
  else
    (* Strided stream: [base + offset + (iter * stride) mod footprint].
       Every wrapped index is a multiple of gcd(stride, footprint), so
       the stream is contained in the closure of [base + offset] under
       that step.  Exact whenever the modulus divides the footprint and
       the trip count covers the orbit; an over-approximation (sound)
       otherwise. *)
    let step = gcd (abs m.Mem_access.stride) (effective_footprint m) in
    Lattice.step_closure
      (Lattice.of_residue ~modulus (base + m.Mem_access.offset))
      step

(* ------------------------------------------------------ classification *)

type verdict = Local | Remote | Mixed

let touched_clusters cfg ~parts stream =
  let i_factor = cfg.Config.interleaving_factor in
  let dec = Config.decoder cfg in
  let seen = Array.make cfg.Config.n_clusters false in
  List.iter
    (fun r ->
      for q = 0 to parts - 1 do
        seen.(Config.home_of dec (r + (q * i_factor))) <- true
      done)
    (Lattice.residues stream);
  let acc = ref [] in
  for c = cfg.Config.n_clusters - 1 downto 0 do
    if seen.(c) then acc := c :: !acc
  done;
  !acc

let classify cfg ~assigned ~parts stream =
  match touched_clusters cfg ~parts stream with
  | [] -> Local (* empty stream: vacuously local *)
  | cs ->
      let touches_assigned = List.mem assigned cs in
      let touches_other = List.exists (fun c -> c <> assigned) cs in
      if touches_assigned && not touches_other then Local
      else if touches_other && not touches_assigned then Remote
      else Mixed

type op_verdict = {
  op : int;
  assigned : int;
  clusters : int list;
  verdict : verdict;
}

type bounds = {
  verdicts : op_verdict list;
  trip : int;
  n_local : int;
  n_remote : int;
  n_mixed : int;
  trip_local : int;
  trip_remote : int;
  trip_total : int;
}

let analyze cfg layout (c : Pipeline.compiled) =
  let ddg = c.Pipeline.loop.Loop.ddg in
  let sched = c.Pipeline.schedule in
  let trip = c.Pipeline.loop.Loop.trip_count in
  let i_factor = cfg.Config.interleaving_factor in
  let verdicts =
    List.map
      (fun op ->
        let o = Ddg.op ddg op in
        let m =
          match o.Operation.mem with
          | Some m -> m
          | None -> invalid_arg "Locality.analyze: memory op without descriptor"
        in
        let parts =
          max 1
            ((m.Mem_access.granularity + i_factor - 1) / i_factor)
        in
        let stream = op_stream cfg layout m in
        let assigned = sched.Schedule.cluster.(op) in
        {
          op;
          assigned;
          clusters = touched_clusters cfg ~parts stream;
          verdict = classify cfg ~assigned ~parts stream;
        })
      (Ddg.memory_ops ddg)
  in
  let count v =
    List.fold_left
      (fun acc ov -> if ov.verdict = v then acc + 1 else acc)
      0 verdicts
  in
  let n_local = count Local and n_remote = count Remote in
  {
    verdicts;
    trip;
    n_local;
    n_remote;
    n_mixed = count Mixed;
    trip_local = trip * n_local;
    trip_remote = trip * n_remote;
    trip_total = trip * List.length verdicts;
  }

(* ----------------------------------------------- conservation law *)

let check_stats ~attraction_buffers ~bounds ~stats ~where =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let lh = Stats.accesses stats Access.Local_hit in
  let rh = Stats.accesses stats Access.Remote_hit in
  let lm = Stats.accesses stats Access.Local_miss in
  let rm = Stats.accesses stats Access.Remote_miss in
  let cb = Stats.accesses stats Access.Combined in
  let upper pass actual ~bound ~what ~why =
    if actual > bound then
      add
        (D.error ~pass ~where "%s = %d exceed the %d accesses %s" what actual
           bound why)
  in
  let lower pass actual ~bound ~what ~why =
    if actual < bound then
      add
        (D.error ~pass ~where "%s = %d below the %d accesses %s" what actual
           bound why)
  in
  upper "locality/remote-bound" (rh + rm)
    ~bound:(bounds.trip_total - bounds.trip_local)
    ~what:"remote classifications"
    ~why:"not proven local by the congruence analysis";
  if attraction_buffers then
    upper "locality/local-bound" lm
      ~bound:(bounds.trip_total - bounds.trip_remote)
      ~what:"local-miss classifications"
      ~why:"not proven remote by the congruence analysis"
  else
    upper "locality/local-bound" (lh + lm)
      ~bound:(bounds.trip_total - bounds.trip_remote)
      ~what:"local classifications"
      ~why:"not proven remote by the congruence analysis";
  lower "locality/local-floor" (lh + lm + cb) ~bound:bounds.trip_local
    ~what:"local or in-flight classifications"
    ~why:"proven local by the congruence analysis";
  if not attraction_buffers then
    lower "locality/remote-floor" (rh + rm + cb) ~bound:bounds.trip_remote
      ~what:"remote or in-flight classifications"
      ~why:"proven remote by the congruence analysis";
  List.rev !diags

let summary_diag ~bounds ~where =
  D.info ~pass:"locality/summary" ~where
    "%d mem ops: %d provably local, %d provably remote, %d mixed (%d/%d \
     accesses proven local)"
    (List.length bounds.verdicts)
    bounds.n_local bounds.n_remote bounds.n_mixed bounds.trip_local
    bounds.trip_total
