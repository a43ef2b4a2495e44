type t = { name : string; description : string; kernels : Kernel.spec list }

let loops t = List.map Kernel.build t.kernels

let dynamic_counts t f =
  List.fold_left
    (fun acc (k : Kernel.spec) ->
      List.fold_left
        (fun acc (r : Kernel.mem_ref) ->
          let key = f r in
          let cur = Option.value ~default:0 (List.assoc_opt key acc) in
          (key, cur + k.Kernel.trip_count) :: List.remove_assoc key acc)
        acc k.Kernel.refs)
    [] t.kernels

let total_dynamic t =
  List.fold_left
    (fun acc (k : Kernel.spec) ->
      acc + (k.Kernel.trip_count * List.length k.Kernel.refs))
    0 t.kernels

let dominant_size t =
  let by_size = dynamic_counts t (fun r -> r.Kernel.granularity) in
  let size, count =
    List.fold_left
      (fun ((_, bc) as best) ((_, c) as cand) ->
        if c > bc then cand else best)
      (4, 0) by_size
  in
  (size, float_of_int count /. float_of_int (max 1 (total_dynamic t)))

let indirect_share t =
  let by_ind = dynamic_counts t (fun r -> r.Kernel.indirect) in
  let ind = Option.value ~default:0 (List.assoc_opt true by_ind) in
  float_of_int ind /. float_of_int (max 1 (total_dynamic t))
