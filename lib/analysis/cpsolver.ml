exception Conflict

type t = {
  mutable n : int;
  mutable offset : int array;  (** each var's slice of [present] *)
  mutable size : int array;
  mutable present : Bytes.t;  (** concatenated domain bitmaps, one byte per value *)
  mutable used : int;  (** bytes of [present] in use *)
  mutable count : int array;  (** live domain size per var *)
  mutable assigned : int array;  (** value, or -1 *)
  mutable cells : int array;
  mutable n_cells : int;
  mutable trail : int array;
      (** pairs: [(v, x)] for value [x] removed from var [v], and
          [(-1 - c, old)] for cell [c] overwritten *)
  mutable trail_len : int;
  mutable queue : int array;  (** ring of vars to propagate; power-of-two length *)
  mutable q_head : int;
  mutable q_len : int;
  mutable watchers : (int -> unit) array;  (** registration order *)
}

let create () =
  {
    n = 0;
    offset = [||];
    size = [||];
    present = Bytes.create 256;
    used = 0;
    count = [||];
    assigned = [||];
    cells = [||];
    n_cells = 0;
    trail = Array.make 256 0;
    trail_len = 0;
    queue = Array.make 16 0;
    q_head = 0;
    q_len = 0;
    watchers = [||];
  }

let n_vars t = t.n

(* [a] extended to at least [need] elements, new ones [d] *)
let grow a need d =
  let cap = Array.length a in
  if need <= cap then a
  else Array.init (max need (max 16 (2 * cap))) (fun i -> if i < cap then a.(i) else d)

let enqueue t v =
  let cap = Array.length t.queue in
  if t.q_len = cap then begin
    t.queue <-
      Array.init (2 * cap) (fun i ->
          if i < cap then t.queue.((t.q_head + i) land (cap - 1)) else 0);
    t.q_head <- 0
  end;
  t.queue.((t.q_head + t.q_len) land (Array.length t.queue - 1)) <- v;
  t.q_len <- t.q_len + 1

let push t a b =
  if t.trail_len + 2 > Array.length t.trail then
    t.trail <- grow t.trail (t.trail_len + 2) 0;
  t.trail.(t.trail_len) <- a;
  t.trail.(t.trail_len + 1) <- b;
  t.trail_len <- t.trail_len + 2

let new_var t ~size =
  if size <= 0 then invalid_arg "Cpsolver.new_var: size must be positive";
  let v = t.n in
  t.offset <- grow t.offset (v + 1) 0;
  t.size <- grow t.size (v + 1) 0;
  t.count <- grow t.count (v + 1) 0;
  t.assigned <- grow t.assigned (v + 1) (-1);
  if t.used + size > Bytes.length t.present then begin
    let cap' = max (2 * Bytes.length t.present) (t.used + size) in
    let b = Bytes.make cap' '\001' in
    Bytes.blit t.present 0 b 0 t.used;
    t.present <- b
  end;
  Bytes.fill t.present t.used size '\001';
  t.offset.(v) <- t.used;
  t.size.(v) <- size;
  t.count.(v) <- size;
  t.assigned.(v) <- -1;
  t.used <- t.used + size;
  t.n <- v + 1;
  if size = 1 then begin
    (* born assigned; propagate like any other assignment *)
    t.assigned.(v) <- 0;
    enqueue t v
  end;
  v

let value t v = t.assigned.(v)
let assignment t = t.assigned

let new_cells t k =
  let base = t.n_cells in
  t.cells <- grow t.cells (base + k) 0;
  t.n_cells <- base + k;
  base

let get t c = t.cells.(c)

let set t c x =
  let old = t.cells.(c) in
  if old <> x then begin
    push t (-1 - c) old;
    t.cells.(c) <- x
  end

let mem t v x =
  x >= 0 && x < t.size.(v) && Bytes.get t.present (t.offset.(v) + x) <> '\000'

let became_assigned t v =
  (* count just hit 1: find the survivor *)
  let off = t.offset.(v) in
  let x = ref (-1) in
  for i = 0 to t.size.(v) - 1 do
    if Bytes.get t.present (off + i) <> '\000' then x := i
  done;
  t.assigned.(v) <- !x;
  enqueue t v

let remove t v x =
  if mem t v x then begin
    if t.assigned.(v) = x then raise Conflict;
    Bytes.set t.present (t.offset.(v) + x) '\000';
    let c = t.count.(v) - 1 in
    t.count.(v) <- c;
    push t v x;
    if c = 0 then raise Conflict;
    if c = 1 && t.assigned.(v) < 0 then became_assigned t v
  end

let assign t v x =
  if not (mem t v x) then raise Conflict;
  if t.assigned.(v) >= 0 then begin
    if t.assigned.(v) <> x then raise Conflict
  end
  else
    for y = 0 to t.size.(v) - 1 do
      if y <> x then remove t v y
    done

let on_assign t f = t.watchers <- Array.append t.watchers [| f |]

let propagate t =
  while t.q_len > 0 do
    let v = t.queue.(t.q_head) in
    t.q_head <- (t.q_head + 1) land (Array.length t.queue - 1);
    t.q_len <- t.q_len - 1;
    let ws = t.watchers in
    for i = 0 to Array.length ws - 1 do
      ws.(i) v
    done
  done

(* A var is assigned exactly while its count is 1 (a removal never
   empties an assigned domain: that raises first), so undoing the
   removal that left one value also unassigns. *)
let undo_to t mark =
  t.q_len <- 0;
  let tr = t.trail in
  let i = ref t.trail_len in
  while !i > mark do
    i := !i - 2;
    let a = tr.(!i) and b = tr.(!i + 1) in
    if a >= 0 then begin
      Bytes.set t.present (t.offset.(a) + b) '\001';
      let c = t.count.(a) + 1 in
      t.count.(a) <- c;
      if c = 2 then t.assigned.(a) <- -1
    end
    else t.cells.(-1 - a) <- b
  done;
  t.trail_len <- mark

type result = Sat | Unsat | Budget_exhausted
type stats = { decisions : int; conflicts : int }

exception Budget

let solve t ?values ~order ~max_decisions ~max_conflicts () =
  let decisions = ref 0 and conflicts = ref 0 in
  let len = Array.length order in
  let rec next i =
    if i < len && t.assigned.(order.(i)) >= 0 then next (i + 1) else i
  in
  (* Chronological DFS.  [dfs i] assigns order.(i..); exhausting a
     node's candidate values fails the node (false), undone by the
     caller's trail mark. *)
  let rec dfs i =
    let i = next i in
    if i >= len then true
    else
      let v = order.(i) in
      let hi = match values with Some f -> f v | None -> t.size.(v) in
      try_values v 0 hi (i + 1)
  and try_values v x hi i =
    if x >= hi then false
    else if not (mem t v x) then try_values v (x + 1) hi i
    else begin
      incr decisions;
      if !decisions > max_decisions then raise Budget;
      let mark = t.trail_len in
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
      ok
      || begin
        undo_to t mark;
        try_values v (x + 1) hi i
      end
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
  (res, { decisions = !decisions; conflicts = !conflicts })
