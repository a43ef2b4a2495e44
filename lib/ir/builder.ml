type t = {
  mutable rev_ops : Operation.t list;
  mutable rev_edges : Edge.t list;
  mutable n : int;
  mutable next_reg : int;
}

let create () = { rev_ops = []; rev_edges = []; n = 0; next_reg = 0 }

let fresh_reg t =
  let r = t.next_reg in
  t.next_reg <- r + 1;
  r

let add t ?(dests = []) ?(srcs = []) ?mem opcode =
  let id = t.n in
  t.rev_ops <- Operation.make ?mem ~dests ~srcs ~id opcode :: t.rev_ops;
  t.n <- id + 1;
  t.next_reg <-
    List.fold_left (fun acc r -> max acc (r + 1)) t.next_reg (dests @ srcs);
  id

let dep t ?kind ?distance src dst =
  t.rev_edges <- Edge.make ?kind ?distance ~src ~dst () :: t.rev_edges

let flow t ?distance src dst = dep t ~kind:Edge.Reg_flow ?distance src dst

let build t =
  let ops = Array.of_list (List.rev t.rev_ops) in
  Ddg.make ops (List.rev t.rev_edges)
