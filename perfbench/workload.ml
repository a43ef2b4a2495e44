(* What every workload hands back to benchmark.ml, and the timed loop the
   batch workloads share. *)

type env = {
  seed : int;
  seconds : float;  (** length of the timed phase *)
  smoke : bool;  (** reduced sizes, one operation, one set-up *)
}

(* One set-up: its duration, and the same cut at its compiles
   ([Compiles.cut_at_compiles]). *)
type setup = { wall : float; segments : (string * float) list }

type outcome = {
  setups : setup list;
  latencies_ms : float list;
      (** batch: one per timed operation; serve: one per deck of the lone
          user, its time over its requests *)
  tail_ms : float;
      (** batch: slowest operation; serve: the highest percentile at mid
          with ten requests beyond it *)
  throughput : float;  (** units of work per second *)
  attempted : int;  (** operations in the timed phase *)
  failed : int;
  window : float * float;  (** the timed phase *)
  caps : Compiles.captured list;  (** compiles kept for checks and replay *)
  memo : (string * Vliw_parallel.Memo.stats) list;
  checks : (string * bool) list;
  layers : Measure.metric list;  (** this workload's own per-layer metrics *)
  info : string list;  (** human-readable lines printed before the result *)
}

(* A run sets up five times, each time the same work on fresh state:
   set-ups 0 and 1 before the timed phase, set-up 0 with its compiles kept
   for the checks and the traced replay, and set-ups 2 to 4 after it
   (smoke mode: set-up 0 alone).  [f i] is set-up i; each returns its
   value and its [setup]. *)
let n_setups = 5
let n_before = 2

let setup_range f first last =
  List.init (last - first) (fun k ->
      let i = first + k in
      let (r, segments), wall =
        Measure.time (fun () ->
            Compiles.cut_at_compiles (fun () ->
                if i = 0 then Compiles.recording_during (fun () -> f i)
                else f i))
      in
      (r, { wall; segments }))

let setups_before env f = setup_range f 0 (if env.smoke then 1 else n_before)

let setups_after env f =
  if env.smoke then [] else setup_range f n_before n_setups

(* Whether every set-up was cut at the same compiles, in the same order. *)
let cut_alike = function
  | [] -> false
  | first :: rest ->
      let names s = List.map fst s.segments in
      List.for_all (fun s -> names s = names first) rest

(* The set-up time: each segment at its fastest over the set-ups, summed
   ([nan] unless [cut_alike]).  The shared host this is measured on runs
   a thread at one of two speeds about 45 % apart and switches between
   them every second or few, so a whole set-up's time, or the median of
   five, moves with the host's mix of the two over the run; a segment is
   one compile and what came before it, far shorter, and in one of five
   set-ups it nearly always runs at the faster speed.  The sum is then
   the set-up's time at the host's faster speed, and a change that makes
   any part of the set-up slower still shows in full. *)
let setup_s setups =
  match setups with
  | first :: rest when cut_alike setups ->
      Measure.sum
        (List.fold_left
           (fun fastest s ->
             List.map2 (fun a (_, d) -> Float.min a d) fastest s.segments)
           (List.map snd first.segments)
           rest)
  | _ -> nan

(* The batch workloads' timed phase: operation [i] runs in its own root
   span, and another starts only while one more of median length still
   ends within [env.seconds] (a single one in smoke mode).  Returns the
   per-operation results and durations and the window. *)
let timed_ops env op =
  let t0 = Measure.now () in
  let deadline = t0 +. env.seconds in
  let rec go i acc =
    let r, dt =
      Measure.time (fun () ->
          Spans.with_span "op" (Printf.sprintf "op %d" i) (fun () -> op i))
    in
    let acc = (r, dt) :: acc in
    let typical = Measure.median (List.map snd acc) in
    if env.smoke || Measure.now () +. typical > deadline then List.rev acc
    else go (i + 1) acc
  in
  let ops = go 0 [] in
  (ops, (t0, Measure.now ()))

(* The outcome of a batch workload from its timed operations' durations:
   [units] is the work done per operation (artefacts, cells, loops), so
   throughput is units per median operation. *)
let batch_outcome ~setups ~durations ~units ~failed ~window ~caps ~memo ~checks
    ~layers =
  {
    setups;
    latencies_ms = List.map (fun d -> d *. 1000.0) durations;
    tail_ms = 1000.0 *. List.fold_left max 0.0 durations;
    throughput = Measure.ratio units (Measure.median durations);
    attempted = List.length durations;
    failed;
    window;
    caps;
    memo;
    checks;
    layers;
    info = [];
  }

let no_stats =
  { Vliw_parallel.Memo.size = 0; hits = 0; misses = 0; evictions = 0 }

let memo_metrics stats =
  let one name =
    let s = Option.value (List.assoc_opt name stats) ~default:no_stats in
    let open Vliw_parallel.Memo in
    Measure.
      [
        count (Printf.sprintf "memo.%s.hits" name) s.hits;
        count (Printf.sprintf "memo.%s.misses" name) s.misses;
        metric
          (Printf.sprintf "memo.%s.hit_ratio" name)
          "ratio"
          (ratio (float_of_int s.hits) (float_of_int (s.hits + s.misses)));
      ]
  in
  List.concat_map one [ "compiles"; "traces"; "oracles" ]
  @ [
      Measure.count "memo.evictions"
        (List.fold_left
           (fun acc (_, s) -> acc + s.Vliw_parallel.Memo.evictions)
           0 stats);
    ]

(* Memo counters accrued between two snapshots. *)
let memo_delta before after =
  List.map
    (fun (name, (a : Vliw_parallel.Memo.stats)) ->
      let b = Option.value (List.assoc_opt name before) ~default:no_stats in
      ( name,
        {
          a with
          Vliw_parallel.Memo.hits = a.hits - b.hits;
          misses = a.misses - b.misses;
          evictions = a.evictions - b.evictions;
        } ))
    after

let null_ppf () = Format.make_formatter (fun _ _ _ -> ()) (fun () -> ())
