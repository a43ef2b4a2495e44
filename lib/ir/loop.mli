(** A modulo-schedulable loop: its DDG plus the dynamic information the
    paper's compiler gets from profiling (average trip count) and from the
    benchmark structure (weight in the dynamic instruction stream). *)

type t = {
  name : string;
  ddg : Ddg.t;
  trip_count : int;  (** iterations of the *original* (non-unrolled) loop *)
  weight : float;  (** share of the benchmark's dynamic instructions *)
}

val make : ?weight:float -> name:string -> trip_count:int -> Ddg.t -> t
(** @raise Invalid_argument on a non-positive trip count. *)

val unrolled : t -> factor:int -> t
(** Unroll the DDG and divide the trip count (the workload generators only
    use trip counts that are multiples of the maximum unroll factor). *)
