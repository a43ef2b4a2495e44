(* Open-addressing map from non-negative int keys to int values.

   The simulators' pending-request bookkeeping sits on the hottest path
   of loop execution; stdlib [Hashtbl] allocates a bucket cell on every
   [replace] and an option on every [find_opt], which is exactly the
   garbage the allocation-free kernel is built to avoid.  This table
   probes two parallel int arrays instead: lookups and updates of an
   existing key never allocate, and inserting only allocates when the
   table grows (amortized, and bounded by the number of live keys).

   No deletion — the simulators only ever [reset] whole tables between
   loops, which keeps the capacity and just clears the keys. *)

type t = {
  mutable keys : int array;  (* -1 = empty slot *)
  mutable vals : int array;
  mutable live : int;
  mutable mask : int;  (* capacity - 1; capacity is a power of two *)
  mutable latest : int;  (* the largest value set since the last reset *)
}

let create capacity =
  let cap =
    let rec up c = if c >= capacity && c >= 16 then c else up (c * 2) in
    up 16
  in
  {
    keys = Array.make cap (-1);
    vals = Array.make cap 0;
    live = 0;
    mask = cap - 1;
    latest = -1;
  }

(* Fibonacci hashing: spreads consecutive keys (block ids are dense)
   over the table before masking. *)
let slot_of t key = (key * 0x2545F4914F6CDD1D) land max_int land t.mask

let rec probe keys mask key i =
  let k = keys.(i) in
  if k = key || k = -1 then i else probe keys mask key ((i + 1) land mask)

let grow t =
  let keys = t.keys and vals = t.vals in
  let cap = (t.mask + 1) * 2 in
  t.keys <- Array.make cap (-1);
  t.vals <- Array.make cap 0;
  t.mask <- cap - 1;
  Array.iteri
    (fun i k ->
      if k >= 0 then begin
        let j = probe t.keys t.mask k (slot_of t k) in
        t.keys.(j) <- k;
        t.vals.(j) <- vals.(i)
      end)
    keys

let set t key value =
  if key < 0 then invalid_arg "Int_table.set: negative key";
  if value > t.latest then t.latest <- value;
  let i = probe t.keys t.mask key (slot_of t key) in
  if t.keys.(i) = -1 then begin
    t.keys.(i) <- key;
    t.vals.(i) <- value;
    t.live <- t.live + 1;
    if 2 * t.live > t.mask then grow t
  end
  else t.vals.(i) <- value

(* Once [now] has reached every value set, nothing needs probing. *)
let find_after t key ~now =
  if now >= t.latest || key < 0 then -1
  else
    let i = probe t.keys t.mask key (slot_of t key) in
    if t.keys.(i) <> -1 && t.vals.(i) > now then t.vals.(i) else -1

let reset t =
  t.latest <- -1;
  if t.live > 0 then begin
    Array.fill t.keys 0 (t.mask + 1) (-1);
    t.live <- 0
  end
