(* Way [w] of set [s] is slot [s * ways + w] of two flat arrays: its key
   (-1 = invalid) and the stamp of its last use, a monotonic counter
   whose smallest value in a set marks the LRU victim.  The scans are
   top-level functions over [int array]-annotated arguments, so [=] and
   [<] are integer compares and no closure is built per call. *)

type t = {
  ways : int;
  sets : int;
  mask : int;  (** [sets - 1] when [sets] is a power of two, else -1 *)
  keys : int array;
  stamps : int array;
  mutable clock : int;
}

let create ~sets ~ways =
  if sets <= 0 || ways <= 0 then invalid_arg "Set_assoc.create";
  {
    ways;
    sets;
    mask = (if sets land (sets - 1) = 0 then sets - 1 else -1);
    keys = Array.make (sets * ways) (-1);
    stamps = Array.make (sets * ways) 0;
    clock = 0;
  }

let[@inline] first t key =
  if key < 0 then invalid_arg "Set_assoc: negative key";
  (if t.mask >= 0 then key land t.mask else key mod t.sets) * t.ways

let rec scan (keys : int array) key i stop =
  if i = stop then -1 else if keys.(i) = key then i else scan keys key (i + 1) stop

(* The first invalid way, else the smallest stamp; [v] is valid. *)
let rec victim (keys : int array) (stamps : int array) v i stop =
  if i = stop then v
  else if keys.(i) < 0 then i
  else victim keys stamps (if stamps.(i) < stamps.(v) then i else v) (i + 1) stop

let[@inline] find t key =
  let b = first t key in
  scan t.keys key b (b + t.ways)

let[@inline] touch t i =
  t.clock <- t.clock + 1;
  t.stamps.(i) <- t.clock

let use t key =
  let i = find t key in
  if i >= 0 then touch t i;
  i

let fill t key =
  let b = first t key in
  let stop = b + t.ways in
  let i = scan t.keys key b stop in
  if i >= 0 then begin
    touch t i;
    -1
  end
  else
    let v = if t.keys.(b) < 0 then b else victim t.keys t.stamps b (b + 1) stop in
    let evicted = t.keys.(v) in
    t.keys.(v) <- key;
    touch t v;
    evicted

let invalidate t key =
  let i = find t key in
  if i >= 0 then t.keys.(i) <- -1

let flush t = Array.fill t.keys 0 (Array.length t.keys) (-1)
let occupancy t = Array.fold_left (fun n k -> if k >= 0 then n + 1 else n) 0 t.keys
