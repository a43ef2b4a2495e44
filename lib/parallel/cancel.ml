(* Deterministic cooperative cancellation: a per-domain token charged
   in work units at fixed instrumentation points.  Wall-clock never
   enters the decision, so a request that times out does so at the same
   tick on every host and --jobs setting — the property the compile
   service's byte-identical-replay guarantee rests on. *)

exception Cancelled of { stage : string; spent : int; budget : int }

type t = { budget : int; mutable spent : int; mutable stage : string }

let create ~budget = { budget = max 0 budget; spent = 0; stage = "start" }

(* One token per domain: the service installs it in the worker domain
   that owns the request, and Pool.sequential_scope keeps every nested
   map in that same domain, so the token covers the whole handler. *)
let key : t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let with_token t f =
  let saved = Domain.DLS.get key in
  Domain.DLS.set key (Some t);
  Fun.protect ~finally:(fun () -> Domain.DLS.set key saved) f

let active () = Domain.DLS.get key

(* The concurrency sanitizer's virtual scheduler multiplexes many
   fibers over one domain; it snapshots/restores the domain-local token
   around every fiber switch so each fiber keeps its own token. *)
let dls_snapshot () = Domain.DLS.get key
let dls_restore saved = Domain.DLS.set key saved

let remaining () =
  match Domain.DLS.get key with
  | None -> None
  | Some t -> Some (max 0 (t.budget - t.spent))

let set_stage s =
  match Domain.DLS.get key with None -> () | Some t -> t.stage <- s

let charge n =
  match Domain.DLS.get key with
  | None -> ()
  | Some t -> t.spent <- t.spent + n

let trip t =
  Sync.note
    (Printf.sprintf "cancel: tripped at stage %s (%d/%d units)" t.stage t.spent
       t.budget);
  raise (Cancelled { stage = t.stage; spent = t.spent; budget = t.budget })

let check ?stage () =
  match Domain.DLS.get key with
  | None -> ()
  | Some t ->
      (match stage with Some s -> t.stage <- s | None -> ());
      if t.spent > t.budget then trip t

let tick ?stage n =
  match Domain.DLS.get key with
  | None -> ()
  | Some t ->
      (match stage with Some s -> t.stage <- s | None -> ());
      t.spent <- t.spent + n;
      if t.spent > t.budget then trip t

let cancel ?stage () =
  match Domain.DLS.get key with
  | None -> invalid_arg "Cancel.cancel: no token installed"
  | Some t ->
      (match stage with Some s -> t.stage <- s | None -> ());
      trip t
