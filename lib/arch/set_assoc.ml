(* Each way stores (key, stamp); stamp is a monotonic use counter, the
   smallest stamp in a set is the LRU victim.  Sets are small (2-4 ways),
   so linear scans are the right tool. *)

type entry = { mutable key : int; mutable stamp : int; mutable valid : bool }

type t = {
  n_sets : int;
  n_ways : int;
  entries : entry array array;  (** [set].(way) *)
  mutable clock : int;
}

let create ~sets ~ways =
  if sets <= 0 || ways <= 0 then invalid_arg "Set_assoc.create";
  {
    n_sets = sets;
    n_ways = ways;
    entries =
      Array.init sets (fun _ ->
          Array.init ways (fun _ -> { key = 0; stamp = 0; valid = false }));
    clock = 0;
  }

let set_of t key = key mod t.n_sets

let find_way t key =
  let set = t.entries.(set_of t key) in
  let rec scan i =
    if i >= t.n_ways then None
    else if set.(i).valid && set.(i).key = key then Some set.(i)
    else scan (i + 1)
  in
  scan 0

let contains t key = Option.is_some (find_way t key)

let touch t e =
  t.clock <- t.clock + 1;
  e.stamp <- t.clock

let lookup t key =
  match find_way t key with
  | Some e ->
      touch t e;
      true
  | None -> false

let insert t key =
  match find_way t key with
  | Some e ->
      touch t e;
      None
  | None ->
      let set = t.entries.(set_of t key) in
      let victim = ref set.(0) in
      Array.iter
        (fun e ->
          if not e.valid then begin
            if !victim.valid then victim := e
          end
          else if !victim.valid && e.stamp < !victim.stamp then victim := e)
        set;
      let evicted = if !victim.valid then Some !victim.key else None in
      !victim.key <- key;
      !victim.valid <- true;
      touch t !victim;
      evicted

let invalidate t key =
  match find_way t key with Some e -> e.valid <- false | None -> ()

let flush t =
  Array.iter (fun set -> Array.iter (fun e -> e.valid <- false) set) t.entries

let occupancy t =
  Array.fold_left
    (fun acc set ->
      Array.fold_left (fun acc e -> if e.valid then acc + 1 else acc) acc set)
    0 t.entries
