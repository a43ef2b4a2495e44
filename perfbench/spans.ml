(* The traced run's span recorder.  Spans are recorded from the
   benchmark's own files, around its calls into each layer of the
   library; they stay in memory and are written as Chrome trace-event
   JSON when the run ends (open the file in https://ui.perfetto.dev or
   chrome://tracing).  With tracing off, [with_span] is a plain call. *)

type span = {
  id : int;
  parent : int;  (** [-1] for a root span *)
  layer : string;  (** what self time is aggregated under *)
  name : string;
  track : int;  (** Chrome thread id: see [track_names] *)
  start : float;
  stop : float;
}

let track_names =
  [ (0, "workload"); (1, "service handler"); (2, "replay"); (3, "requests") ]

let enabled = ref false
let mutex = Mutex.create ()
let recorded : span list ref = ref []
let next_id = ref 0

(* Time spent inside the recorder itself (and in compile capture while
   tracing), which the traced run reports as [trace.overhead_s]. *)
let overhead = ref 0.0

(* Open spans of the calling domain, innermost first. *)
let open_spans = Domain.DLS.new_key (fun () -> [])

let locked f =
  Mutex.lock mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock mutex) f

let charge dt = locked (fun () -> overhead := !overhead +. dt)

let record s = locked (fun () -> recorded := s :: !recorded)

let fresh_id () =
  locked (fun () ->
      let id = !next_id in
      incr next_id;
      id)

let with_span ?(track = 0) layer name f =
  if not !enabled then f ()
  else begin
    let t_in = Measure.now () in
    let id = fresh_id () in
    let stack = Domain.DLS.get open_spans in
    let parent = match stack with p :: _ -> p | [] -> -1 in
    Domain.DLS.set open_spans (id :: stack);
    let start = Measure.now () in
    let close () =
      let stop = Measure.now () in
      Domain.DLS.set open_spans stack;
      record { id; parent; layer; name; track; start; stop };
      charge (Measure.now () -. stop +. (start -. t_in))
    in
    Fun.protect ~finally:close f
  end

(* A span whose interval was measured elsewhere (the service reports
   each handler's duration in its response). *)
let add ~track layer name ~start ~stop =
  if !enabled then
    record { id = fresh_id (); parent = -1; layer; name; track; start; stop }

(* Rollback point: the replay drops the spans of an attempt whose
   result did not match the captured compile. *)
let mark () = locked (fun () -> !next_id)

let rollback m =
  locked (fun () -> recorded := List.filter (fun s -> s.id < m) !recorded)

let all () = locked (fun () -> List.rev !recorded)

(* Self time per layer: each span's duration minus the part of it its
   child spans cover. *)
let self_by_layer () =
  let spans = all () in
  let child_time = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_time s.parent
          ((s.stop -. s.start)
          +. Option.value ~default:0.0 (Hashtbl.find_opt child_time s.parent)))
    spans;
  let by_layer = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let self =
        s.stop -. s.start
        -. Option.value ~default:0.0 (Hashtbl.find_opt child_time s.id)
      in
      Hashtbl.replace by_layer s.layer
        (self +. Option.value ~default:0.0 (Hashtbl.find_opt by_layer s.layer)))
    spans;
  by_layer

let self_s by_layer layer =
  Option.value ~default:0.0 (Hashtbl.find_opt by_layer layer)

(* The benchmark's own bookkeeping spans: a timed operation, a client
   step and a request's round trip.  They wrap calls into the library
   but time none of it themselves. *)
let bookkeeping = [ "op"; "client.step"; "serve.request" ]

(* Time in [t0, t1] covered by no span of a library layer, so a call
   into the library that no span times shows here. *)
let unattributed ~t0 ~t1 =
  let layers =
    List.filter (fun s -> not (List.mem s.layer bookkeeping)) (all ())
    |> List.map (fun s -> (max t0 s.start, min t1 s.stop))
    |> List.filter (fun (a, b) -> b > a)
    |> List.sort compare
  in
  let covered, _ =
    List.fold_left
      (fun (acc, upto) (a, b) ->
        let a = max a upto in
        if b > a then (acc +. (b -. a), b) else (acc, upto))
      (0.0, t0) layers
  in
  t1 -. t0 -. covered

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let write_chrome path =
  let spans = all () in
  let origin = List.fold_left (fun acc s -> min acc s.start) infinity spans in
  let us t = (t -. origin) *. 1e6 in
  let event s =
    Printf.sprintf
      {|{"name":"%s","cat":"%s","ph":"X","ts":%.3f,"dur":%.3f,"pid":1,"tid":%d,"args":{"id":%d,"parent":%d}}|}
      (Vliw_service.Proto.escape s.name)
      (Vliw_service.Proto.escape s.layer)
      (us s.start)
      ((s.stop -. s.start) *. 1e6)
      s.track s.id s.parent
  in
  let meta (tid, name) =
    Printf.sprintf
      {|{"name":"thread_name","ph":"M","pid":1,"tid":%d,"args":{"name":"%s"}}|}
      tid name
  in
  mkdir_p (Filename.dirname path);
  Out_channel.with_open_text path (fun oc ->
      output_string oc {|{"displayTimeUnit":"ms","traceEvents":[|};
      output_string oc
        (String.concat ",\n" (List.map meta track_names @ List.map event spans));
      output_string oc "]}\n")
