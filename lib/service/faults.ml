(* Seeded deterministic fault plans; see the mli for the contract.  The
   mixer is splitmix64's finalizer — a few multiplies and shifts give a
   well-scrambled 64-bit value from (seed, seq) without any stateful
   PRNG, which is what keeps the plan a pure function. *)

type kind = Decode_corruption | Worker_exception | Budget_exhaustion | Queue_full

exception Injected of string

type plan = { seed : int }

let create ~seed = { seed }

let mix64 z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94d049bb133111ebL in
  logxor z (shift_right_logical z 31)

let raw p seq =
  (* The golden-ratio stride decorrelates consecutive sequence numbers
     before mixing, like splitmix64's stream advance. *)
  let x =
    Int64.add
      (Int64.mul (Int64.of_int seq) 0x9e3779b97f4a7c15L)
      (Int64.of_int p.seed)
  in
  Int64.to_int (Int64.shift_right_logical (mix64 x) 2)

let for_request p seq =
  let r = raw p seq in
  if r mod 3 <> 0 then None
  else
    Some
      (match (r / 3) mod 4 with
      | 0 -> Decode_corruption
      | 1 -> Worker_exception
      | 2 -> Budget_exhaustion
      | _ -> Queue_full)

let corrupt p seq line =
  (* Every variant leads with 0xff — not a legal first byte of any JSON
     document — so corruption cannot accidentally stay parseable. *)
  let n = String.length line in
  match raw p (seq + 0x5eed) mod 3 with
  | 0 -> "\xff" ^ line
  | 1 -> "\xff" ^ String.sub line 0 (n / 2)
  | _ ->
      if n = 0 then "\xff"
      else "\xff" ^ String.sub line 1 (n - 1)
