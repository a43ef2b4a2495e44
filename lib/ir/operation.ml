type reg = int

type t = {
  id : int;
  opcode : Opcode.t;
  dests : reg list;
  srcs : reg list;
  mem : Mem_access.t option;
}

let make ?(dests = []) ?(srcs = []) ?mem ~id opcode =
  (match (Opcode.is_memory opcode, mem) with
  | true, None ->
      invalid_arg "Operation.make: memory opcode without access descriptor"
  | false, Some _ ->
      invalid_arg "Operation.make: access descriptor on non-memory opcode"
  | _ -> ());
  { id; opcode; dests; srcs; mem }

let is_memory t = Opcode.is_memory t.opcode
let is_load t = Opcode.equal t.opcode Opcode.Load
let is_store t = Opcode.equal t.opcode Opcode.Store
let with_id t id = { t with id }

let pp ppf t =
  let pp_regs = Fmt.(list ~sep:comma int) in
  Format.fprintf ppf "n%d: %a" t.id Opcode.pp t.opcode;
  if t.dests <> [] then Format.fprintf ppf " r[%a] <-" pp_regs t.dests;
  if t.srcs <> [] then Format.fprintf ppf " r[%a]" pp_regs t.srcs;
  match t.mem with
  | None -> ()
  | Some m -> Format.fprintf ppf " @@ %a" Mem_access.pp m
