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
