(* serve-mixed: the resident compile service under an open-loop client.
   Serve.run ~jobs:1 runs in its own domain on a pipe pair; the client in
   the main domain sends each request at its due time whatever the
   service is doing (independent users), polls the response pipe with
   select, and never blocks on it.  Two domains in all.

   Set-up is a fresh service's warm-up pass over every compile and trace
   key the mix can reach — what a resident service pays once — run on
   the main domain alone (see [warm_up]); the last set-up before the
   timed phase hands its warm context to the timed service.  The timed
   phase is a closed loop with one request outstanding (a lone user who
   waits for each answer), three open-loop steps at fixed rates (lo, mid,
   hi), a closed-loop burst with 16 requests outstanding that measures
   the capacity, and the lone user again.  In the open loop, latency is taken
   from each request's due time, so a stall also counts against the
   requests queued behind it; a failed request counts as infinitely slow.

   The lone user's latency is the median over decks of a deck's time over
   its 100 requests, that is the mean time one request of the mix takes,
   transport, decoding, memo and handler included.  It, the open-loop
   percentiles and the capacity are printed and are per-layer metrics
   (op.latency_ms, op.tail_ms at mid, op.throughput): the percentiles
   and the capacity swing by a quarter or more from run to run on a
   shared 2-core host, because the explain requests that set them are
   allocation-heavy and both domains must keep pace.  A step's tail is
   its highest percentile with ten requests beyond it. *)

module Proto = Vliw_service.Proto
module Serve = Vliw_service.Serve
module E = Vliw_experiments

(* Requests per second, fixed here and never derived per run: about 20,
   45 and 60 % of the capacity measured on a 2-core host (about 450 rps
   with this mix, 16 outstanding).  The lone user gets about 450 rps. *)
let rate_lo = 100.0
let rate_mid = 200.0
let rate_hi = 280.0
let rate_capacity = 450.0
let rate_lone = 450.0
let burst_window = 16

(* Explain.run_all's default seed: the service's explain handler passes
   none, so its compiles profile at this seed whatever the context's. *)
let explain_seed = 7

let benches = Array.of_list Vliw_workloads.Mediabench.names
let archs = [| "interleaved"; "interleaved+ab"; "multivliw"; "unified5" |]
let trip_caps = [| 64; 1024 |]

(* 16 fixed sweep points: cache size x associativity x buses x AB
   off/on, each on its own benchmark. *)
let sweep_points =
  Array.init 16 (fun i ->
      Printf.sprintf
        {|"bench":"%s","cache_size":%d,"associativity":%d,"buses":%d%s|}
        benches.(i mod Array.length benches)
        (if i land 1 = 0 then 4096 else 16384)
        (if i land 2 = 0 then 1 else 4)
        (if i land 4 = 0 then 2 else 8)
        (if i land 8 = 0 then "" else {|,"ab_entries":16|}))

let line ~id kind body =
  Printf.sprintf {|{"req":"%s","id":"%s"%s%s}|} kind id
    (if body = "" then "" else ",")
    body

(* The explain requests' benchmarks: a cheap, a middling and the
   dearest one to explain (about 6, 30 and 160 ms of handler time). *)
let explain_benches = [ "rasta"; "g721dec"; "gsmdec" ]

(* The request mix: one fixed deck of 100 requests, dealt again and again
   in an order the seed shuffles afresh for each deck — 30 compile (every
   benchmark under both heuristics), 45 simulate (a fixed spread of
   benchmark x architecture x trip cap), 17 sweep-cell, 5 health and 3
   explain.  Every deck asks the service for the same work, so per-deck
   figures compare across decks, steps and runs. *)
let deck =
  let b j = benches.(j mod Array.length benches) in
  List.init 30 (fun j ->
      ( "compile",
        Printf.sprintf {|"bench":"%s","heuristic":"%s"|} (b j)
          (if j / Array.length benches mod 2 = 0 then "ipbc" else "ibc") ))
  @ List.init 45 (fun j ->
        ( "simulate",
          Printf.sprintf {|"bench":"%s","arch":"%s","trip_cap":%d|} (b j)
            archs.(j mod Array.length archs)
            trip_caps.(j / Array.length benches mod 2) ))
  @ List.init 17 (fun j -> ("sweep-cell", sweep_points.(j mod 16)))
  @ List.init 5 (fun _ -> ("health", ""))
  @ List.map
      (fun b -> ("explain", Printf.sprintf {|"bench":"%s"|} b))
      explain_benches
  |> Array.of_list

let deck_size = Array.length deck

type gen = {
  rng : Random.State.t;
  hand : (string * string) array;
  mutable dealt : int;
}

let generator ~seed =
  {
    rng = Random.State.make [| seed |];
    hand = Array.copy deck;
    dealt = deck_size;
  }

(* Start a fresh deck: steps are whole decks. *)
let new_deck gen = gen.dealt <- deck_size

let next gen ~id =
  if gen.dealt = deck_size then begin
    for i = deck_size - 1 downto 1 do
      let j = Random.State.int gen.rng (i + 1) in
      let t = gen.hand.(i) in
      gen.hand.(i) <- gen.hand.(j);
      gen.hand.(j) <- t
    done;
    gen.dealt <- 0
  end;
  let kind, body = gen.hand.(gen.dealt) in
  gen.dealt <- gen.dealt + 1;
  (kind, line ~id kind body)

(* One request per compile and trace key the mix reaches. *)
let warmup_lines () =
  let all = Array.to_list in
  List.concat_map
    (fun b ->
      List.map
        (fun h ->
          line ~id:"warm" "compile"
            (Printf.sprintf {|"bench":"%s","heuristic":"%s"|} b h))
        [ "ipbc"; "ibc" ]
      @ [
          line ~id:"warm" "simulate"
            (Printf.sprintf {|"bench":"%s","trip_cap":64|} b);
        ])
    (all benches)
  @ List.map (line ~id:"warm" "sweep-cell") (all sweep_points)

(* ----------------------------------------------------------- session *)

type session = {
  server : Serve.outcome Domain.t;
  req_w : Unix.file_descr;
  resp_r : Unix.file_descr;
  ctx : E.Context.t;
  pending : Buffer.t;  (** bytes read after the last newline *)
  chunk : Bytes.t;
}

(* A set-up: a fresh service on a fresh context answers the warm-up
   lines and drains at the end of its input, all on the calling domain —
   a second domain would make every minor collection a two-domain
   rendezvous and the set-up's time the host scheduler's.  The lines
   (about 5 KiB) fit a pipe's buffer; the answers go to a file under
   [out_dir], read back and removed.  Returns the context, warm, and the
   answers. *)
let out_dir = "perfbench/out"

let warm_up ~seed lines =
  let ctx = E.Context.create ~seed () in
  let req_r, req_w = Unix.pipe ~cloexec:true () in
  let text = String.concat "" (List.map (fun l -> l ^ "\n") lines) in
  ignore (Unix.write_substring req_w text 0 (String.length text));
  Unix.close req_w;
  Spans.mkdir_p out_dir;
  let path =
    Filename.concat out_dir (Printf.sprintf "warm-up-%d.jsonl" (Unix.getpid ()))
  in
  let out = open_out path in
  Fun.protect
    ~finally:(fun () ->
      close_out_noerr out;
      Unix.close req_r)
    (fun () ->
      ignore
        (Serve.run ~jobs:1 ~wall_times:true ~ctx ~input:req_r ~output:out ()));
  let answers = In_channel.with_open_text path In_channel.input_lines in
  Sys.remove path;
  (ctx, answers)

(* The timed phase's service, in its own domain on a pipe pair, serving
   [ctx] (warmed by a set-up). *)
let start ctx =
  let req_r, req_w = Unix.pipe ~cloexec:true () in
  let resp_r, resp_w = Unix.pipe ~cloexec:true () in
  let server =
    Domain.spawn (fun () ->
        let out = Unix.out_channel_of_descr resp_w in
        Fun.protect
          ~finally:(fun () ->
            close_out_noerr out;
            Unix.close req_r)
          (fun () ->
            Serve.run ~jobs:1 ~wall_times:true ~ctx ~input:req_r ~output:out
              ()))
  in
  {
    server;
    req_w;
    resp_r;
    ctx;
    pending = Buffer.create 4096;
    chunk = Bytes.create 65536;
  }

let send s l =
  let l = l ^ "\n" in
  let n = String.length l in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write_substring s.req_w l !off (n - !off)
  done

(* Response lines that arrive within [timeout] seconds, each with its
   arrival time; [] on timeout, [None] at end of stream. *)
let receive s ~timeout =
  match Unix.select [ s.resp_r ] [] [] (max 0.0 timeout) with
  | [], _, _ -> Some []
  | _ -> (
      match Unix.read s.resp_r s.chunk 0 (Bytes.length s.chunk) with
      | 0 -> None
      | n ->
          let at = Measure.now () in
          Buffer.add_subbytes s.pending s.chunk 0 n;
          let text = Buffer.contents s.pending in
          let parts = String.split_on_char '\n' text in
          let rec split = function
            | [] -> ([], "")
            | [ last ] -> ([], last)
            | l :: rest ->
                let lines, tail = split rest in
                (l :: lines, tail)
          in
          let lines, tail = split parts in
          Buffer.clear s.pending;
          Buffer.add_string s.pending tail;
          Some (List.map (fun l -> (l, at)) lines))

type response = { r_id : string; r_status : string; r_ms : float }

let parse l =
  match Proto.parse l with
  | Ok (Proto.Obj fields) ->
      let str k =
        match List.assoc_opt k fields with Some (Proto.String v) -> v | _ -> ""
      in
      let ms =
        match List.assoc_opt "ms" fields with
        | Some (Proto.Float v) -> v
        | Some (Proto.Int v) -> float_of_int v
        | _ -> 0.0
      in
      { r_id = str "id"; r_status = str "status"; r_ms = ms }
  | Ok _ | Error _ -> { r_id = ""; r_status = "unparsable"; r_ms = 0.0 }

(* Drain the session: the final line is the "drained" summary. *)
let stop s =
  send s {|{"req":"drain","id":"drain"}|};
  Unix.close s.req_w;
  let rec read_all acc =
    match receive s ~timeout:60.0 with
    | None -> acc
    | Some [] -> failwith "serve-mixed: no drain response"
    | Some got -> read_all (List.rev_append (List.map fst got) acc)
  in
  let rest = read_all [] in
  let outcome = Domain.join s.server in
  Unix.close s.resp_r;
  (outcome, List.rev rest)

(* ------------------------------------------------------------- client *)

type sample = {
  kind : string;
  due : float;
  deck_no : int;  (** which deck of its step the request came from *)
  line : string;
  mutable recv : float;
  mutable handler_ms : float;
  mutable ok : bool;
}

type step_stats = {
  name : string;
  samples : sample list;
  late_max_s : float;  (** worst send delay past a due time *)
  backlog_max : int;  (** most requests sent but unanswered *)
  saturated : bool;
  span_s : float;
}

let latency_ms smp =
  if smp.ok then (smp.recv -. smp.due) *. 1000.0 else infinity

(* Deliver responses to their samples; unknown ids are ignored here and
   caught by the one-response-per-request check. *)
let settle table got =
  List.fold_left
    (fun n (l, at) ->
      let r = parse l in
      match Hashtbl.find_opt table r.r_id with
      | Some smp when smp.recv = 0.0 ->
          smp.recv <- at;
          smp.handler_ms <- r.r_ms;
          smp.ok <- r.r_status = "ok";
          Spans.add ~track:1 "serve.handler" smp.kind
            ~start:(at -. (r.r_ms /. 1000.0))
            ~stop:at;
          Spans.add ~track:3 "serve.request" smp.kind ~start:smp.due ~stop:at;
          n + 1
      | _ -> n)
    0 got

let give_up_after = 60.0

(* An open-loop step of [decks] whole decks: request i is due at
   start + i / rate. *)
let open_step s gen table ~name ~rate ~decks =
  new_deck gen;
  let n = decks * deck_size in
  Spans.with_span "client.step" name (fun () ->
      let start = Measure.now () +. 0.005 in
      let due i = start +. (float_of_int i /. rate) in
      let sent = ref 0 and answered = ref 0 in
      let late = ref 0.0 and backlog = ref 0 in
      (* completions trailing sends by more than a tenth of the step when
         its last request goes out: the service is not keeping up *)
      let backlog_at_last_send = ref 0 in
      let samples = ref [] in
      while !answered < n do
        let t = Measure.now () in
        if t > due n +. give_up_after then
          failwith ("serve-mixed: step " ^ name ^ " stalled");
        if !sent < n && due !sent <= t then begin
          let id = Printf.sprintf "%s-%d" name !sent in
          let kind, l = next gen ~id in
          send s l;
          late := Float.max !late (t -. due !sent);
          let smp =
            {
              kind;
              due = due !sent;
              deck_no = !sent / deck_size;
              line = l;
              recv = 0.0;
              handler_ms = 0.0;
              ok = false;
            }
          in
          Hashtbl.replace table id smp;
          samples := smp :: !samples;
          incr sent;
          backlog := max !backlog (!sent - !answered);
          if !sent = n then backlog_at_last_send := !sent - !answered
        end
        else begin
          let timeout = if !sent < n then due !sent -. t else 1.0 in
          match receive s ~timeout with
          | None -> failwith "serve-mixed: service closed the stream"
          | Some got -> answered := !answered + settle table got
        end
      done;
      {
        name;
        samples = List.rev !samples;
        late_max_s = !late;
        backlog_max = !backlog;
        saturated = 10 * !backlog_at_last_send > n;
        span_s = float_of_int n /. rate;
      })

(* Closed loop with [window] requests outstanding for [decks] whole
   decks.  Responses come back in request order, so deck k is done when
   response (k + 1) x 100 arrives.  Returns the samples and the time
   each deck took, from the previous deck's completion. *)
let closed_step s gen table ~name ~window ~decks =
  new_deck gen;
  let n = decks * deck_size in
  Spans.with_span "client.step" name (fun () ->
      let t0 = Measure.now () in
      let sent = ref 0 and answered = ref 0 in
      let samples = ref [] in
      while !answered < n do
        if Measure.now () -. t0 > give_up_after then
          failwith ("serve-mixed: step " ^ name ^ " stalled");
        if !sent < n && !sent - !answered < window then begin
          let id = Printf.sprintf "%s-%d" name !sent in
          let kind, l = next gen ~id in
          let now = Measure.now () in
          send s l;
          let smp =
            {
              kind;
              due = now;
              deck_no = !sent / deck_size;
              line = l;
              recv = 0.0;
              handler_ms = 0.0;
              ok = false;
            }
          in
          Hashtbl.replace table id smp;
          samples := smp :: !samples;
          incr sent
        end
        else
          match receive s ~timeout:1.0 with
          | None -> failwith "serve-mixed: service closed the stream"
          | Some got -> answered := !answered + settle table got
      done;
      let samples = List.rev !samples in
      let deck_done k =
        List.fold_left
          (fun acc smp -> if smp.deck_no = k then Float.max acc smp.recv else acc)
          t0 samples
      in
      ( samples,
        List.init decks (fun k ->
            deck_done k -. if k = 0 then t0 else deck_done (k - 1)) ))

let percentile_ms samples q =
  Measure.quantile (List.map latency_ms samples) q

(* The highest percentile with ten samples beyond it. *)
let tail_ms samples =
  percentile_ms samples
    (Float.max 0.5 (1.0 -. (10.0 /. float_of_int (List.length samples))))

let layer_names =
  [
    ("serve.requests", "count");
    ("serve.wait_share", "ratio");
    ("serve.handler_share.compile", "ratio");
    ("serve.handler_share.simulate", "ratio");
    ("serve.handler_share.sweep-cell", "ratio");
    ("serve.handler_share.explain", "ratio");
    ("serve.tail_growth", "ratio");
    ("proto.decode_share", "ratio");
    ("client.backlog_max", "count");
    ("client.saturated_steps", "count");
  ]

let run (env : Workload.env) : Workload.outcome =
  let seed = env.Workload.seed in
  Atomic.set Compiles.seed seed;
  Compiles.other_seeds := [ explain_seed ];
  let warm = warmup_lines () in
  (* The latest set-up's warm context, kept for the timed phase's service
     and dropped when the next set-up starts, so that no set-up runs with
     an earlier one's memos still live. *)
  let warm_ctx = ref None in
  let set_up _ =
    warm_ctx := None;
    let ctx, answers = warm_up ~seed warm in
    warm_ctx := Some ctx;
    List.map parse answers
  in
  let before = Workload.setups_before env set_up in
  let s = start (Option.get !warm_ctx) in
  warm_ctx := None;
  let memo0 = E.Context.memo_stats s.ctx in
  let gen = generator ~seed in
  let table = Hashtbl.create 4096 in
  let t0 = Measure.now () in
  let steps, closed_samples, lone_decks, capacity =
    Compiles.recording_during (fun () ->
        (* An eighth of the timed phase for the lone user, a quarter at
           lo, a quarter at mid, a tenth at hi, an eighth in the burst
           and another eighth for the lone user, each in whole decks (one
           deck each in smoke mode).  The lone user's two steps at either
           end keep one burst of load on a shared host from covering
           both. *)
        let decks share rate =
          if env.Workload.smoke then 1
          else
            max 1
              (int_of_float
                 (Float.round
                    (env.Workload.seconds *. share *. rate
                    /. float_of_int deck_size)))
        in
        let step name rate share =
          open_step s gen table ~name ~rate ~decks:(decks share rate)
        in
        let lone step =
          closed_step s gen table ~name:step ~window:1
            ~decks:(decks 0.125 rate_lone)
        in
        let lone_first, first_decks = lone "lone-first" in
        let lo = step "lo" rate_lo 0.25 in
        let mid = step "mid" rate_mid 0.25 in
        let hi = step "hi" rate_hi 0.1 in
        let burst, burst_decks =
          closed_step s gen table ~name:"burst" ~window:burst_window
            ~decks:(decks 0.125 rate_capacity)
        in
        let lone_last, last_decks = lone "lone-last" in
        ( [ lo; mid; hi ],
          lone_first @ burst @ lone_last,
          first_decks @ last_decks,
          Measure.ratio (float_of_int deck_size) (Measure.median burst_decks) ))
  in
  let t1 = Measure.now () in
  let memo1 = E.Context.memo_stats s.ctx in
  let outcome, tail_lines = stop s in
  let caps = Compiles.take () in
  let after = Workload.setups_after env set_up in
  let setups = List.map snd (before @ after) in
  (* one ok answer per warm-up line, then the drained line *)
  let warm_ok =
    List.for_all
      (fun (responses, _) ->
        match List.rev responses with
        | last :: answers ->
            last.r_status = "drained"
            && List.length answers = List.length warm
            && List.for_all (fun r -> r.r_status = "ok") answers
        | [] -> false)
      (before @ after)
  in
  let all = List.concat_map (fun st -> st.samples) steps @ closed_samples in
  let lo, mid, hi =
    match steps with [ lo; mid; hi ] -> (lo, mid, hi) | _ -> assert false
  in
  let failed = List.filter (fun smp -> not smp.ok) all in
  let unanswered = List.filter (fun smp -> smp.recv = 0.0) all in
  let drained =
    List.exists
      (fun l -> (parse l).r_status = "drained")
      tail_lines
  in
  let c = outcome.Serve.counters in
  let handler_total = Measure.sum (List.map (fun smp -> smp.handler_ms) all) in
  let handler_share kind =
    Measure.metric
      ("serve.handler_share." ^ kind)
      "ratio"
      (Measure.ratio
         (Measure.sum
            (List.filter_map
               (fun smp ->
                 if smp.kind = kind then Some smp.handler_ms else None)
               all))
         handler_total)
  in
  let decode_s =
    snd
      (Measure.time (fun () ->
           List.iter (fun smp -> ignore (Proto.decode smp.line)) all))
  in
  let wait_share =
    let sum f = Measure.sum (List.map f mid.samples) in
    let lat = sum (fun smp -> smp.recv -. smp.due) in
    Measure.ratio (lat -. (sum (fun smp -> smp.handler_ms) /. 1000.0)) lat
  in
  let per_step st =
    Printf.sprintf
      "serve %s: %d requests at %.0f rps, mean %.3f ms, p50 %.3f ms, tail \
       %.3f ms, generator late by at most %.3f ms, backlog max %d%s"
      st.name (List.length st.samples)
      (float_of_int (List.length st.samples) /. st.span_s)
      (Measure.sum (List.map latency_ms st.samples)
      /. float_of_int (List.length st.samples))
      (percentile_ms st.samples 0.5)
      (tail_ms st.samples)
      (st.late_max_s *. 1000.0) st.backlog_max
      (if st.saturated then " (saturated)" else "")
  in
  let by_kind =
    List.map
      (fun kind ->
        let ms =
          List.filter_map
            (fun smp -> if smp.kind = kind then Some smp.handler_ms else None)
            all
        in
        Printf.sprintf "serve handler %s: %d requests, p50 %.3f ms, p99 %.3f ms"
          kind (List.length ms) (Measure.quantile ms 0.5)
          (Measure.quantile ms 0.99))
      [ "compile"; "simulate"; "sweep-cell"; "health"; "explain" ]
  in
  {
    Workload.setups;
    latencies_ms =
      List.map
        (fun d -> 1000.0 *. d /. float_of_int deck_size)
        lone_decks;
    tail_ms = tail_ms mid.samples;
    throughput = capacity;
    attempted = List.length all;
    failed = List.length failed;
    window = (t0, t1);
    caps;
    memo = Workload.memo_delta memo0 memo1;
    checks =
      [
        ( Printf.sprintf
            "warm-up: one ok answer per request, then drained (%d set-ups)"
            (List.length setups),
          warm_ok );
        ( Printf.sprintf "one response per request, echoed id, all ok (%d sent)"
            (List.length all),
          unanswered = [] && failed = []
          && c.Serve.accepted = List.length all + 1
          && c.Serve.ok = List.length all );
        ("session drained", drained);
      ];
    layers =
      Measure.
        [
          count "serve.requests" (List.length all);
          metric "serve.wait_share" "ratio" wait_share;
          handler_share "compile";
          handler_share "simulate";
          handler_share "sweep-cell";
          handler_share "explain";
          metric "serve.tail_growth" "ratio"
            (Measure.ratio (tail_ms hi.samples) (tail_ms lo.samples));
          metric "proto.decode_share" "ratio"
            (Measure.ratio (decode_s *. 1000.0) handler_total);
          count "client.backlog_max"
            (List.fold_left (fun acc st -> max acc st.backlog_max) 0 steps);
          count "client.saturated_steps"
            (List.length (List.filter (fun st -> st.saturated) steps));
        ];
    info =
      List.map per_step steps @ by_kind
      @ [
          Printf.sprintf "serve capacity (closed loop, %d outstanding): %.1f rps"
            burst_window capacity;
        ];
  }
