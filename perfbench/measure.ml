(* Clock, order statistics and the metric record shared by every
   workload. *)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Linear-interpolation quantile (the [statistics.quantiles] "inclusive"
   method), so a median of an even count is the mean of the middle
   pair. *)
let quantile xs q =
  let a = Array.of_list xs in
  Array.sort compare a;
  match Array.length a with
  | 0 -> nan
  | n ->
      let pos = q *. float_of_int (n - 1) in
      let i = int_of_float pos in
      let frac = pos -. float_of_int i in
      if i + 1 >= n then a.(n - 1) else a.(i) +. (frac *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5

let sum xs = List.fold_left ( +. ) 0.0 xs

let ratio num den = if den = 0.0 then 0.0 else num /. den

(* Peak size of the OCaml major heap over the whole process, in MiB —
   where every table, plan, trace and schedule lives. *)
let peak_heap_mb () =
  let s = Gc.quick_stat () in
  float_of_int (s.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }
let count name n = metric name "count" (float_of_int n)
