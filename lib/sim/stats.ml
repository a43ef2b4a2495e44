module Access = Vliw_arch.Access

type factor =
  | More_than_one_cluster
  | Unclear_preferred
  | Not_in_preferred
  | Granularity

let all_factors =
  [ More_than_one_cluster; Unclear_preferred; Not_in_preferred; Granularity ]

let factor_to_string = function
  | More_than_one_cluster -> "more than one cluster"
  | Unclear_preferred -> "unclear preferred info"
  | Not_in_preferred -> "not in preferred"
  | Granularity -> "granularity"

(* The order of [Access.of_index], restated so it inlines. *)
let kind_index = function
  | Access.Local_hit -> 0
  | Access.Remote_hit -> 1
  | Access.Local_miss -> 2
  | Access.Remote_miss -> 3
  | Access.Combined -> 4

let factor_index = function
  | More_than_one_cluster -> 0
  | Unclear_preferred -> 1
  | Not_in_preferred -> 2
  | Granularity -> 3

type t = {
  accesses : float array;  (** by kind *)
  stall : float array;  (** by kind *)
  factors : float array;
  mutable compute : float;
}

let create () =
  {
    accesses = Array.make Access.n_kinds 0.0;
    stall = Array.make Access.n_kinds 0.0;
    factors = Array.make (List.length all_factors) 0.0;
    compute = 0.0;
  }

let count_access t k = t.accesses.(kind_index k) <- t.accesses.(kind_index k) +. 1.0

let count_stall t k ~cycles =
  t.stall.(kind_index k) <- t.stall.(kind_index k) +. float_of_int cycles

let count_stall_factor t f =
  t.factors.(factor_index f) <- t.factors.(factor_index f) +. 1.0

let factor_mask fs =
  List.fold_left (fun m f -> m lor (1 lsl factor_index f)) 0 fs

let count_stall_factor_mask t m =
  for i = 0 to 3 do
    if m land (1 lsl i) <> 0 then t.factors.(i) <- t.factors.(i) +. 1.0
  done

let tally_size = (2 * Access.n_kinds) + List.length all_factors

let add_tally t (tally : int array) =
  let add into off =
    Array.iteri (fun i v -> into.(i) <- v +. float_of_int tally.(off + i)) into
  in
  add t.accesses 0;
  add t.stall Access.n_kinds;
  add t.factors (2 * Access.n_kinds)

let add_compute t c = t.compute <- t.compute +. float_of_int c

let iround x = int_of_float (Float.round x)
let accesses t k = iround t.accesses.(kind_index k)
let total_accesses t = iround (Array.fold_left ( +. ) 0.0 t.accesses)
let stall_of t k = iround t.stall.(kind_index k)
let stall_cycles t = iround (Array.fold_left ( +. ) 0.0 t.stall)
let compute_cycles t = iround t.compute
let total_cycles t = compute_cycles t + stall_cycles t
let factor_count t f = iround t.factors.(factor_index f)

let local_hit_ratio t =
  let total = Array.fold_left ( +. ) 0.0 t.accesses in
  if total = 0.0 then 0.0 else t.accesses.(kind_index Access.Local_hit) /. total

let equal a b =
  a.accesses = b.accesses && a.stall = b.stall && a.factors = b.factors
  && a.compute = b.compute

let accumulate ~into t =
  Array.iteri (fun i v -> into.accesses.(i) <- into.accesses.(i) +. v) t.accesses;
  Array.iteri (fun i v -> into.stall.(i) <- into.stall.(i) +. v) t.stall;
  Array.iteri (fun i v -> into.factors.(i) <- into.factors.(i) +. v) t.factors;
  into.compute <- into.compute +. t.compute

let scale t f =
  {
    accesses = Array.map (fun v -> v *. f) t.accesses;
    stall = Array.map (fun v -> v *. f) t.stall;
    factors = Array.map (fun v -> v *. f) t.factors;
    compute = t.compute *. f;
  }

let pp ppf t =
  let pr k = t.accesses.(kind_index k) in
  Format.fprintf ppf
    "@[<v>accesses: LH %.0f RH %.0f LM %.0f RM %.0f C %.0f@,\
     stall:    RH %.0f LM %.0f RM %.0f C %.0f@,\
     compute %.0f, stall %.0f, total %d@]"
    (pr Access.Local_hit) (pr Access.Remote_hit) (pr Access.Local_miss)
    (pr Access.Remote_miss) (pr Access.Combined)
    t.stall.(kind_index Access.Remote_hit)
    t.stall.(kind_index Access.Local_miss)
    t.stall.(kind_index Access.Remote_miss)
    t.stall.(kind_index Access.Combined)
    t.compute
    (Array.fold_left ( +. ) 0.0 t.stall)
    (total_cycles t)
