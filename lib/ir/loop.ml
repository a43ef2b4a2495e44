type t = { name : string; ddg : Ddg.t; trip_count : int; weight : float }

let make ?(weight = 1.0) ~name ~trip_count ddg =
  if trip_count <= 0 then invalid_arg "Loop.make: non-positive trip count";
  { name; ddg; trip_count; weight }

let unrolled t ~factor =
  {
    t with
    ddg = Unroll.ddg t.ddg ~factor;
    trip_count = max 1 (t.trip_count / factor);
  }
