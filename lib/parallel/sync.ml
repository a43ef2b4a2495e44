(* Instrumentation shim: passthrough / record / virtual.  See sync.mli. *)

module Trace = struct
  type event =
    | Acquire of int
    | Release of int
    | Wait_begin of { cond : int; mutex : int }
    | Wait_end of { cond : int; mutex : int }
    | Signal of { cond : int; broadcast : bool }
    | Read of int
    | Write of int
    | A_load of int
    | A_store of int
    | Fork of { child : int }
    | Begin of { parent : int }
    | End
    | Join of { child : int }
    | Note of string

  type entry = { stamp : int; ev : event }
  type thread = { tid : int; events : entry list }
  type t = { threads : thread list; names : (int * string) list }

  let n_events t =
    List.fold_left (fun acc th -> acc + List.length th.events) 0 t.threads
end

(* ------------------------------------------------------------ objects *)

type mutex = { m : Mutex.t; m_id : int }
type condition = { c : Condition.t; c_id : int }
type cell = { cell_id : int }
type atomic = { a : int Atomic.t; a_id : int }

let next_obj = Atomic.make 0
let names_mutex = Mutex.create ()
let names : (int, string) Hashtbl.t = Hashtbl.create 64

let new_obj name =
  let id = Atomic.fetch_and_add next_obj 1 in
  (match name with
  | None -> ()
  | Some n ->
      Mutex.lock names_mutex;
      Hashtbl.replace names id n;
      Mutex.unlock names_mutex);
  id

let with_id_base base f =
  let saved = Atomic.exchange next_obj base in
  Fun.protect ~finally:(fun () -> Atomic.set next_obj saved) f

let name_of_id id =
  Mutex.lock names_mutex;
  let n = Hashtbl.find_opt names id in
  Mutex.unlock names_mutex;
  n

let mutex ?name () = { m = Mutex.create (); m_id = new_obj name }
let condition ?name () = { c = Condition.create (); c_id = new_obj name }
let cell ?name () = { cell_id = new_obj name }
let atomic ?name v = { a = Atomic.make v; a_id = new_obj name }

(* ---------------------------------------------------------- recording *)

(* [active] > 0 while a record scope is open anywhere in the process;
   the common passthrough case is one atomic load + one branch (plus the
   domain-local virtual-hook read). *)
let active = Atomic.make 0
let generation = Atomic.make 0
let stamp_counter = Atomic.make 0
let next_tid = Atomic.make 0

(* Serializes atomic-object operations with their stamps while
   recording, so per-object stamp order matches real execution order. *)
let atomic_order = Mutex.create ()

type local = { tid : int; gen : int; mutable buf : Trace.entry list }

(* tid -> the same [local] the owning domain appends to.  Guarded by
   [names_mutex] (registration is rare); snapshot happens after all
   in-scope threads are joined. *)
let logs : (int, local) Hashtbl.t = Hashtbl.create 16

let local_key : local option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let register_local l =
  Mutex.lock names_mutex;
  Hashtbl.replace logs l.tid l;
  Mutex.unlock names_mutex

let my_local () =
  let slot = Domain.DLS.get local_key in
  let gen = Atomic.get generation in
  match !slot with
  | Some l when l.gen = gen -> l
  | _ ->
      let l = { tid = Atomic.fetch_and_add next_tid 1; gen; buf = [] } in
      register_local l;
      slot := Some l;
      l

let adopt_local l =
  let slot = Domain.DLS.get local_key in
  slot := Some l

let recording () = Atomic.get active > 0

let record ev =
  if recording () then begin
    let l = my_local () in
    if l.gen = Atomic.get generation then begin
      let stamp = Atomic.fetch_and_add stamp_counter 1 in
      l.buf <- { Trace.stamp; ev } :: l.buf
    end
  end

(* ------------------------------------------------------- virtual hook *)

type virtual_ops = {
  v_lock : int -> unit;
  v_unlock : int -> unit;
  v_wait : cond:int -> mutex:int -> unit;
  v_signal : broadcast:bool -> int -> unit;
  v_read : int -> unit;
  v_write : int -> unit;
  v_aload : int -> unit;
  v_astore : int -> unit;
  v_spawn : (unit -> unit) -> int;
  v_join : int -> unit;
}

let virtual_key : virtual_ops option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let set_virtual_ops v = Domain.DLS.get virtual_key := v
let vops () = !(Domain.DLS.get virtual_key)

(* --------------------------------------------------------- operations *)

let lock mu =
  match vops () with
  | Some v -> v.v_lock mu.m_id
  | None ->
      if Atomic.get active = 0 then Mutex.lock mu.m
      else begin
        Mutex.lock mu.m;
        record (Trace.Acquire mu.m_id)
      end

let unlock mu =
  match vops () with
  | Some v -> v.v_unlock mu.m_id
  | None ->
      if Atomic.get active = 0 then Mutex.unlock mu.m
      else begin
        (* stamped while still holding the mutex *)
        record (Trace.Release mu.m_id);
        Mutex.unlock mu.m
      end

let wait cond mu =
  match vops () with
  | Some v -> v.v_wait ~cond:cond.c_id ~mutex:mu.m_id
  | None ->
      if Atomic.get active = 0 then Condition.wait cond.c mu.m
      else begin
        record (Trace.Wait_begin { cond = cond.c_id; mutex = mu.m_id });
        Condition.wait cond.c mu.m;
        record (Trace.Wait_end { cond = cond.c_id; mutex = mu.m_id })
      end

let signal cond =
  match vops () with
  | Some v -> v.v_signal ~broadcast:false cond.c_id
  | None ->
      if Atomic.get active = 0 then Condition.signal cond.c
      else begin
        record (Trace.Signal { cond = cond.c_id; broadcast = false });
        Condition.signal cond.c
      end

let broadcast cond =
  match vops () with
  | Some v -> v.v_signal ~broadcast:true cond.c_id
  | None ->
      if Atomic.get active = 0 then Condition.broadcast cond.c
      else begin
        record (Trace.Signal { cond = cond.c_id; broadcast = true });
        Condition.broadcast cond.c
      end

let read cl =
  match vops () with
  | Some v -> v.v_read cl.cell_id
  | None -> if Atomic.get active <> 0 then record (Trace.Read cl.cell_id)

let write cl =
  match vops () with
  | Some v -> v.v_write cl.cell_id
  | None -> if Atomic.get active <> 0 then record (Trace.Write cl.cell_id)

let get at =
  match vops () with
  | Some v ->
      v.v_aload at.a_id;
      Atomic.get at.a
  | None ->
      if Atomic.get active = 0 then Atomic.get at.a
      else begin
        Mutex.lock atomic_order;
        let r = Atomic.get at.a in
        record (Trace.A_load at.a_id);
        Mutex.unlock atomic_order;
        r
      end

let add at n =
  match vops () with
  | Some v ->
      v.v_astore at.a_id;
      ignore (Atomic.fetch_and_add at.a n)
  | None ->
      if Atomic.get active = 0 then ignore (Atomic.fetch_and_add at.a n)
      else begin
        Mutex.lock atomic_order;
        ignore (Atomic.fetch_and_add at.a n);
        record (Trace.A_store at.a_id);
        Mutex.unlock atomic_order
      end

let note msg = if recording () then record (Trace.Note msg)

(* --------------------------------------------------------- spawn/join *)

type 'a outcome = Done of 'a | Raised of exn

type 'a handle =
  | H_domain of { d : 'a Domain.t; child : int option }
  | H_virtual of { fid : int; result : 'a outcome option ref }

let spawn f =
  match vops () with
  | Some v ->
      let result = ref None in
      let fid =
        v.v_spawn (fun () ->
            match f () with
            | x -> result := Some (Done x)
            | exception e -> result := Some (Raised e))
      in
      H_virtual { fid; result }
  | None ->
      if not (recording ()) then H_domain { d = Domain.spawn f; child = None }
      else begin
        let parent = (my_local ()).tid in
        let gen = Atomic.get generation in
        let child = { tid = Atomic.fetch_and_add next_tid 1; gen; buf = [] } in
        register_local child;
        record (Trace.Fork { child = child.tid });
        let d =
          Domain.spawn (fun () ->
              adopt_local child;
              record (Trace.Begin { parent });
              Fun.protect ~finally:(fun () -> record Trace.End) f)
        in
        H_domain { d; child = Some child.tid }
      end

let join h =
  match h with
  | H_domain { d; child } ->
      let fin () =
        match child with
        | Some c when recording () -> record (Trace.Join { child = c })
        | _ -> ()
      in
      let r = try Domain.join d with e -> fin (); raise e in
      fin ();
      r
  | H_virtual { fid; result } -> (
      (match vops () with
      | Some v -> v.v_join fid
      | None ->
          invalid_arg "Sync.join: virtual handle outside virtual scheduler");
      match !result with
      | Some (Done x) -> x
      | Some (Raised e) -> raise e
      | None -> invalid_arg "Sync.join: virtual fiber not finished")

(* ------------------------------------------------------- record scope *)

(* Serializes record scopes process-wide. *)
let scope_mutex = Mutex.create ()

let record_scope f =
  Mutex.lock scope_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock scope_mutex)
    (fun () ->
      Mutex.lock names_mutex;
      Hashtbl.reset logs;
      Mutex.unlock names_mutex;
      Atomic.set stamp_counter 0;
      Atomic.set next_tid 0;
      Atomic.incr generation;
      (* the caller is tid 0 *)
      ignore (my_local () : local);
      Atomic.incr active;
      let v =
        Fun.protect
          ~finally:(fun () -> Atomic.decr active)
          (fun () ->
            let v = f () in
            record Trace.End;
            v)
      in
      Mutex.lock names_mutex;
      let threads =
        Hashtbl.fold
          (fun tid (l : local) acc ->
            { Trace.tid; events = List.rev l.buf } :: acc)
          logs []
        |> List.sort (fun a b -> compare a.Trace.tid b.Trace.tid)
      in
      let nm = Hashtbl.fold (fun id n acc -> (id, n) :: acc) names [] in
      Mutex.unlock names_mutex;
      (v, { Trace.threads; names = List.sort compare nm }))
