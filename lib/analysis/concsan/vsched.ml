(* Cooperative virtual scheduler + sleep-set DPOR.  See the mli for the
   model; implementation notes:

   - Fibers are one-shot effect continuations.  Because continuations
     cannot be resumed twice, exploration is stateless-replay DFS: each
     interleaving re-runs the scenario from scratch, steered by the
     recorded decision prefix.  The scenario's [prepare] rebuilds all
     shared state, so replays are independent.

   - Condition-variable wait is two decisions: executing the wait
     releases the mutex and blocks the fiber (no code runs); a signal,
     broadcast or injected spurious wakeup makes it runnable again with
     a pending relock, and executing the relock resumes the fiber's
     continuation — exactly the release -> wake -> reacquire structure
     of the real primitive.

   - Abandoned executions (deadlock, stuck, sleep-set-pruned) still
     hold live continuations; they are discontinued with [Drained]
     while the shim hook is in a draining mode that turns every
     operation into a no-op, so Fun.protect finalizers (e.g. Memo's
     claim release) unwind without trying to schedule. *)

module Sync = Vliw_parallel.Sync
module Cancel = Vliw_parallel.Cancel

type failure = { pass : string; message : string; schedule : string }

type outcome = {
  name : string;
  executions : int;
  steps : int;
  truncated : bool;
  failures : failure list;
}

type scenario = {
  name : string;
  spurious_budget : int;
  prepare :
    unit -> (string * (unit -> unit)) list * (unit -> (string * string) option);
}

(* ------------------------------------------------------------- model *)

type op =
  | O_begin
  | O_lock of int
  | O_unlock of int
  | O_wait of { cond : int; mutex : int }  (* release + block *)
  | O_relock of int  (* reacquire after a wake *)
  | O_signal of { cond : int; broadcast : bool }
  | O_read of int
  | O_write of int
  | O_aload of int
  | O_astore of int
  | O_join of int
  | O_spurious of { cond : int }  (* scheduler-injected wakeup *)

type _ Effect.t += Yield : op -> unit Effect.t
type _ Effect.t += Spawned : (unit -> unit) -> int Effect.t

exception Drained

type resume_state =
  | Not_started of (unit -> unit)
  | Paused of (unit, unit) Effect.Deep.continuation
  | Finished

type fstate = Ready | Waiting of { cond : int } | Done_

type fiber = {
  fid : int;
  f_name : string;
  mutable resume : resume_state;
  mutable pending : op;
  mutable state : fstate;
  mutable tok : Cancel.t option;  (* the fiber's saved Cancel token *)
}

type sched = {
  mutable fibers : fiber list;  (* reverse fid order *)
  mutable nfibers : int;
  locks : (int, int) Hashtbl.t;  (* mutex id -> owning fid *)
  mutable draining : bool;
  mutable escaped : (string * exn) list;
}

let fiber_of sched fid = List.find (fun f -> f.fid = fid) sched.fibers
let fibers_in_order sched = List.rev sched.fibers

let add_fiber sched name body =
  let f =
    {
      fid = sched.nfibers;
      f_name = name;
      resume = Not_started body;
      pending = O_begin;
      state = Ready;
      tok = None;
    }
  in
  sched.nfibers <- sched.nfibers + 1;
  sched.fibers <- f :: sched.fibers;
  f

(* ------------------------------------------------------ names/strings *)

let obj id =
  match Sync.name_of_id id with
  | Some n -> n
  | None -> Printf.sprintf "#%d" id

let op_to_string = function
  | O_begin -> "begin"
  | O_lock m -> "lock(" ^ obj m ^ ")"
  | O_unlock m -> "unlock(" ^ obj m ^ ")"
  | O_wait { cond; mutex } ->
      Printf.sprintf "wait(%s,%s)" (obj cond) (obj mutex)
  | O_relock m -> "relock(" ^ obj m ^ ")"
  | O_signal { cond; broadcast } ->
      (if broadcast then "broadcast(" else "signal(") ^ obj cond ^ ")"
  | O_read c -> "read(" ^ obj c ^ ")"
  | O_write c -> "write(" ^ obj c ^ ")"
  | O_aload a -> "aload(" ^ obj a ^ ")"
  | O_astore a -> "astore(" ^ obj a ^ ")"
  | O_join f -> Printf.sprintf "join(f%d)" f
  | O_spurious { cond } -> "spurious-wake(" ^ obj cond ^ ")"

(* ------------------------------------------------------- independence *)

(* Conservative op dependence for sleep sets: control ops conflict with
   everything; same-mutex and same-condition ops conflict; cell/atomic
   accesses conflict when they share the object and one writes. *)
let mutex_foot = function
  | O_lock m | O_unlock m | O_relock m -> Some m
  | O_wait { mutex; _ } -> Some mutex
  | _ -> None

let cond_foot = function
  | O_wait { cond; _ } | O_signal { cond; _ } | O_spurious { cond } -> Some cond
  | _ -> None

let conflicts a b =
  let ctl = function O_begin | O_join _ -> true | _ -> false in
  if ctl a || ctl b then true
  else
    let same foot = match (foot a, foot b) with
      | Some x, Some y -> x = y
      | _ -> false
    in
    same mutex_foot || same cond_foot
    ||
    match (a, b) with
    | O_write c1, (O_read c2 | O_write c2)
    | O_read c1, O_write c2 ->
        c1 = c2
    | O_astore a1, (O_aload a2 | O_astore a2)
    | O_aload a1, O_astore a2 ->
        a1 = a2
    | _ -> false

(* ------------------------------------------------------------ seeding *)

(* splitmix64 finalizer — same mixer as lib/service/faults.ml. *)
let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xbf58476d1ce4e5b9L
  in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94d049bb133111ebL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

let stream seed depth =
  let state =
    ref (mix64 (Int64.add seed (Int64.mul (Int64.of_int (depth + 1))
                                   0x9e3779b97f4a7c15L)))
  in
  fun bound ->
    state := mix64 (Int64.add !state 0x9e3779b97f4a7c15L);
    Int64.to_int (Int64.rem (Int64.logand !state Int64.max_int)
                    (Int64.of_int bound))

let shuffle seed depth lst =
  let arr = Array.of_list lst in
  let next = stream seed depth in
  for i = Array.length arr - 1 downto 1 do
    let j = next (i + 1) in
    let t = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- t
  done;
  Array.to_list arr

(* --------------------------------------------------- fiber execution *)

let fiber_done sched fiber err =
  fiber.state <- Done_;
  fiber.resume <- Finished;
  match err with
  | None | Some Drained -> ()
  | Some e -> sched.escaped <- (fiber.f_name, e) :: sched.escaped

let handler sched fiber =
  {
    Effect.Deep.retc = (fun () -> fiber_done sched fiber None);
    exnc = (fun e -> fiber_done sched fiber (Some e));
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Yield op ->
            Some
              (fun (k : (a, unit) Effect.Deep.continuation) ->
                fiber.resume <- Paused k;
                fiber.pending <- op)
        | Spawned g ->
            Some
              (fun (k : (a, unit) Effect.Deep.continuation) ->
                let child =
                  add_fiber sched (Printf.sprintf "f%d" sched.nfibers) g
                in
                Effect.Deep.continue k child.fid)
        | _ -> None);
  }

(* Resume the fiber until its next visible op (or completion), swapping
   the domain-local Cancel token so fibers sharing this domain keep
   their own tokens. *)
let step_run sched fiber =
  let saved = Cancel.dls_snapshot () in
  Cancel.dls_restore fiber.tok;
  (match fiber.resume with
  | Not_started g ->
      fiber.resume <- Finished;
      Effect.Deep.match_with g () (handler sched fiber)
  | Paused k ->
      fiber.resume <- Finished;
      Effect.Deep.continue k ()
  | Finished -> assert false);
  fiber.tok <- Cancel.dls_snapshot ();
  Cancel.dls_restore saved

let make_ops sched =
  let yield o = if not sched.draining then Effect.perform (Yield o) in
  {
    Sync.v_lock = (fun m -> yield (O_lock m));
    v_unlock = (fun m -> yield (O_unlock m));
    v_wait = (fun ~cond ~mutex -> yield (O_wait { cond; mutex }));
    v_signal = (fun ~broadcast cond -> yield (O_signal { cond; broadcast }));
    v_read = (fun c -> yield (O_read c));
    v_write = (fun c -> yield (O_write c));
    v_aload = (fun a -> yield (O_aload a));
    v_astore = (fun a -> yield (O_astore a));
    v_spawn =
      (fun g -> if sched.draining then -1 else Effect.perform (Spawned g));
    v_join = (fun fid -> yield (O_join fid));
  }

(* Discontinue every live continuation so Fun.protect finalizers run;
   the draining flag makes shim ops no-ops during the unwind. *)
let drain sched =
  sched.draining <- true;
  List.iter
    (fun f ->
      match f.resume with
      | Paused k -> (
          try Effect.Deep.discontinue k Drained with _ -> ())
      | Not_started _ | Finished -> f.resume <- Finished)
    sched.fibers

(* ----------------------------------------------------------- choices *)

type choice = { c_fid : int; c_op : op }

let choice_eq a b =
  a.c_fid = b.c_fid
  &&
  match (a.c_op, b.c_op) with
  | O_spurious _, O_spurious _ -> true
  | O_spurious _, _ | _, O_spurious _ -> false
  | _ -> true (* a non-spurious fiber has exactly one pending op *)

let enabled_choices sched ~spurious_left =
  List.concat_map
    (fun f ->
      match f.state with
      | Done_ -> []
      | Waiting { cond } ->
          if spurious_left > 0 then [ { c_fid = f.fid; c_op = O_spurious { cond } } ]
          else []
      | Ready -> (
          match f.pending with
          | O_lock m | O_relock m ->
              if Hashtbl.mem sched.locks m then []
              else [ { c_fid = f.fid; c_op = f.pending } ]
          | O_join target ->
              if (fiber_of sched target).state = Done_ then
                [ { c_fid = f.fid; c_op = f.pending } ]
              else []
          | op -> [ { c_fid = f.fid; c_op = op } ]))
    (fibers_in_order sched)

let execute_choice sched ch =
  let f = fiber_of sched ch.c_fid in
  match ch.c_op with
  | O_spurious _ ->
      (* wake without a signal: runnable again, must reacquire *)
      f.state <- Ready
  | O_lock m | O_relock m ->
      Hashtbl.replace sched.locks m f.fid;
      step_run sched f
  | O_unlock m ->
      Hashtbl.remove sched.locks m;
      step_run sched f
  | O_wait { cond; mutex } ->
      Hashtbl.remove sched.locks mutex;
      f.state <- Waiting { cond };
      f.pending <- O_relock mutex
      (* the continuation stays paused until the relock executes *)
  | O_signal { cond; broadcast } ->
      let wake fb =
        match fb.state with
        | Waiting w when w.cond = cond ->
            fb.state <- Ready;
            true
        | _ -> false
      in
      (if broadcast then
         List.iter (fun fb -> ignore (wake fb)) (fibers_in_order sched)
       else
         ignore
           (List.exists wake (fibers_in_order sched)));
      step_run sched f
  | O_begin | O_read _ | O_write _ | O_aload _ | O_astore _ | O_join _ ->
      step_run sched f

(* ------------------------------------------------------------ explore *)

type node = {
  n_alts : choice list;  (* seeded candidate order at this point *)
  mutable n_taken : choice;
  mutable n_slept : choice list;  (* inherited + already-explored *)
}

let blocked_description sched =
  fibers_in_order sched
  |> List.filter_map (fun f ->
         match f.state with
         | Done_ -> None
         | Waiting { cond } ->
             Some (Printf.sprintf "%s waiting on %s" f.f_name (obj cond))
         | Ready ->
             Some
               (Printf.sprintf "%s blocked at %s" f.f_name
                  (op_to_string f.pending)))
  |> String.concat "; "

(* Exploration bounds: interleavings per scenario, decisions per
   execution (beyond it the run is a livelock), and preemptions per
   execution. *)
let max_execs = 2048
let max_steps = 4096
let preemption_bound = 4

let explore ~seed scenario =
  let path : node option array = Array.make (max_steps + 2) None in
  let plen = ref 0 in
  let execs = ref 0 in
  let total_steps = ref 0 in
  let truncated = ref false in
  let failures : failure list ref = ref [] in
  let schedule_string upto =
    let parts = ref [] in
    for d = upto - 1 downto 0 do
      match path.(d) with
      | Some n -> parts := Printf.sprintf "f%d:%s" n.n_taken.c_fid
                      (op_to_string n.n_taken.c_op) :: !parts
      | None -> ()
    done;
    String.concat " -> " !parts
  in
  let add_failure ~depth pass message =
    if not (List.exists (fun f -> f.pass = pass) !failures) then
      failures :=
        !failures @ [ { pass; message; schedule = schedule_string depth } ]
  in
  let run_one () =
    (* Deterministic object ids per execution: replayed schedules embed
       mutex/cell ids, so every prepare must allocate the same ones. *)
    Sync.with_id_base 1_000_000 @@ fun () ->
    let roots, check = scenario.prepare () in
    let sched =
      {
        fibers = [];
        nfibers = 0;
        locks = Hashtbl.create 8;
        draining = false;
        escaped = [];
      }
    in
    List.iter (fun (name, body) -> ignore (add_fiber sched name body)) roots;
    let spurious_left = ref scenario.spurious_budget in
    let preemptions = ref 0 in
    let last_fid = ref (-1) in
    let depth = ref 0 in
    let verdict = ref `Running in
    let blocked = ref "" in
    Sync.set_virtual_ops (Some (make_ops sched));
    (* The invariant check below runs real library code (memo lookups,
       emitter state) — it must see passthrough ops, so everything that
       can yield stays inside this protect. *)
    Fun.protect ~finally:(fun () -> Sync.set_virtual_ops None) (fun () ->
    while !verdict = `Running do
      if !depth >= max_steps then verdict := `Stuck
      else if List.for_all (fun f -> f.state = Done_) sched.fibers then
        verdict := `Done
      else begin
        let en = enabled_choices sched ~spurious_left:!spurious_left in
        match en with
        | [] -> verdict := `Deadlock
        | _ ->
            let chosen =
              if !depth < !plen then
                match path.(!depth) with
                | Some n -> Some n.n_taken
                | None -> assert false
              else begin
                (* fresh decision point *)
                let ordered = shuffle seed !depth en in
                let ordered =
                  (* bounded preemption: past the budget, stay on the
                     last-run fiber whenever it is enabled *)
                  if !preemptions >= preemption_bound then
                    match
                      List.filter (fun c -> c.c_fid = !last_fid) ordered
                    with
                    | [] -> ordered
                    | stay -> stay
                  else ordered
                in
                let slept =
                  if !depth = 0 then []
                  else
                    match path.(!depth - 1) with
                    | Some p ->
                        List.filter
                          (fun c -> not (conflicts c.c_op p.n_taken.c_op))
                          p.n_slept
                    | None -> []
                in
                match
                  List.find_opt
                    (fun c -> not (List.exists (choice_eq c) slept))
                    ordered
                with
                | None -> None (* all alternatives covered elsewhere *)
                | Some c ->
                    path.(!depth) <-
                      Some { n_alts = ordered; n_taken = c; n_slept = slept };
                    plen := !depth + 1;
                    Some c
              end
            in
            (match chosen with
            | None -> verdict := `Pruned
            | Some c ->
                (match c.c_op with
                | O_spurious _ -> decr spurious_left
                | _ ->
                    if
                      !last_fid >= 0
                      && c.c_fid <> !last_fid
                      && List.exists (fun e -> e.c_fid = !last_fid) en
                    then incr preemptions;
                    last_fid := c.c_fid);
                execute_choice sched c;
                incr depth;
                incr total_steps)
      end
    done;
    (match !verdict with
    | `Deadlock -> blocked := blocked_description sched
    | _ -> ());
    (match !verdict with `Done -> () | _ -> drain sched));
    (match !verdict with
    | `Done ->
        List.iter
          (fun (fname, e) ->
            add_failure ~depth:!depth "concsan/fiber-exception"
              (Printf.sprintf "exception escaped fiber %s: %s" fname
                 (Printexc.to_string e)))
          sched.escaped;
        (match check () with
        | Some (pass, message) -> add_failure ~depth:!depth pass message
        | None -> ())
    | `Deadlock ->
        add_failure ~depth:!depth "concsan/deadlock"
          (Printf.sprintf "no fiber can make progress: %s" !blocked)
    | `Stuck ->
        add_failure ~depth:!depth "concsan/stuck"
          (Printf.sprintf
             "execution exceeded %d steps without completing (livelock?)"
             max_steps)
    | `Pruned | `Running -> ());
    !depth
  in
  let continue_ = ref true in
  while !continue_ do
    incr execs;
    let reached = run_one () in
    ignore reached;
    (* backtrack: deepest node with an unexplored, non-sleeping
       alternative *)
    let rec back d =
      if d < 0 then continue_ := false
      else
        match path.(d) with
        | None -> back (d - 1)
        | Some n -> (
            n.n_slept <- n.n_taken :: n.n_slept;
            match
              List.find_opt
                (fun c -> not (List.exists (choice_eq c) n.n_slept))
                n.n_alts
            with
            | Some c ->
                n.n_taken <- c;
                plen := d + 1;
                for i = d + 1 to max_steps + 1 do
                  path.(i) <- None
                done
            | None ->
                path.(d) <- None;
                back (d - 1))
    in
    back (!plen - 1);
    if !continue_ && !execs >= max_execs then begin
      truncated := true;
      continue_ := false
    end
  done;
  {
    name = scenario.name;
    executions = !execs;
    steps = !total_steps;
    truncated = !truncated;
    failures = !failures;
  }
