module Config = Vliw_arch.Config
module Ddg = Vliw_ir.Ddg
module Mem_access = Vliw_ir.Mem_access
module Operation = Vliw_ir.Operation

type run = Profile_run | Execution_run

type t = {
  cfg : Config.t;
  aligned : bool;
  run : run;
  seed : int;
  bases : (string, int) Hashtbl.t;
}

let create cfg ~aligned ~run ~seed =
  { cfg; aligned; run; seed; bases = Hashtbl.create 32 }

let run_salt = function Profile_run -> 0x5052 | Execution_run -> 0x4558

let string_hash s = Prng.hash2 (Hashtbl.hash s) 0x1234567

(* Address space: spread symbols over 1MB so distinct arrays rarely
   overlap, word-aligned. *)
let space = 1 lsl 20

let base_of t (m : Mem_access.t) =
  match Hashtbl.find_opt t.bases m.Mem_access.symbol with
  | Some b -> b
  | None ->
      let h = string_hash m.Mem_access.symbol in
      let b =
        match m.Mem_access.storage with
        | Mem_access.Global ->
            (* Same address whatever the input: no run salt. *)
            h mod space / 4 * 4
        | Mem_access.Stack | Mem_access.Heap ->
            let h = Prng.hash2 h (run_salt t.run + t.seed) in
            let raw = h mod space / 4 * 4 in
            if t.aligned then
              let ni = Config.max_unroll t.cfg in
              (raw + ni - 1) / ni * ni
            else raw
      in
      Hashtbl.add t.bases m.Mem_access.symbol b;
      b

let address t (m : Mem_access.t) ~op ~iter =
  let base = base_of t m in
  let g = m.Mem_access.granularity in
  let fp = if m.Mem_access.footprint > 0 then m.Mem_access.footprint else space in
  let off =
    if m.Mem_access.indirect then
      (* A stable pseudo-random walk of the footprint, different between
         the two runs (different input data drive the indices). *)
      let h = Prng.hash2 (string_hash m.Mem_access.symbol + op) (iter + run_salt t.run + t.seed) in
      h mod (max 1 (fp / g)) * g
    else m.Mem_access.offset + (iter * m.Mem_access.stride) mod fp
  in
  base + off

(* The simulator and profiler call the address function once per
   simulated access, so [addr_fn] is staged: applying it to a DDG
   precomputes a flat per-operation address plan (symbol base, offset,
   stride, footprint, indirect-walk seed), and the returned closure is
   pure int arithmetic — no symbol hashing, no hashtable probe, no
   allocation per access. *)
let addr_fn t ddg =
  let n = Ddg.n_ops ddg in
  let is_mem = Array.make n false in
  let base_off = Array.make n 0 in
  (* base + offset for strided ops; bare base for indirect ops *)
  let stride = Array.make n 0 in
  let fp = Array.make n 1 in
  let indirect = Array.make n false in
  let islots = Array.make n 1 in  (* max 1 (footprint / granularity) *)
  let gran = Array.make n 1 in
  let ihash = Array.make n 0 in
  let salt = run_salt t.run + t.seed in
  Array.iter
    (fun (o : Operation.t) ->
      match o.Operation.mem with
      | None -> ()
      | Some m ->
          let op = o.Operation.id in
          let base = base_of t m in
          let g = m.Mem_access.granularity in
          let f =
            if m.Mem_access.footprint > 0 then m.Mem_access.footprint
            else space
          in
          is_mem.(op) <- true;
          fp.(op) <- f;
          gran.(op) <- g;
          if m.Mem_access.indirect then begin
            indirect.(op) <- true;
            base_off.(op) <- base;
            islots.(op) <- max 1 (f / g);
            ihash.(op) <- string_hash m.Mem_access.symbol + op
          end
          else begin
            base_off.(op) <- base + m.Mem_access.offset;
            stride.(op) <- m.Mem_access.stride
          end)
    (Ddg.ops ddg);
  fun ~op ~iter ->
    if not is_mem.(op) then
      invalid_arg "Layout.addr_fn: not a memory operation"
    else if indirect.(op) then
      let h = Prng.hash2 ihash.(op) (iter + salt) in
      base_off.(op) + (h mod islots.(op) * gran.(op))
    else base_off.(op) + ((iter * stride.(op)) mod fp.(op))
