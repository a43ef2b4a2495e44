module Arch = Vliw_arch

type arch =
  | Word_interleaved of { attraction_buffers : bool }
  | Unified of { slow : bool }
  | Multivliw

let arch_to_string = function
  | Word_interleaved { attraction_buffers = true } -> "interleaved+AB"
  | Word_interleaved { attraction_buffers = false } -> "interleaved"
  | Unified { slow = false } -> "unified(L=1)"
  | Unified { slow = true } -> "unified(L=5)"
  | Multivliw -> "multiVLIW"

type state =
  | Interleaved_state of Arch.Interleaved_cache.t
  | Unified_state of Arch.Unified_cache.t
  | Coherent_state of Arch.Coherent_cache.t

type t = { state : state; decode : Arch.Config.decode }

let create cfg arch =
  let decode = Arch.Config.decoder cfg in
  let state =
    match arch with
    | Word_interleaved { attraction_buffers } ->
        Interleaved_state
          (Arch.Interleaved_cache.create ~with_ab:attraction_buffers cfg)
    | Unified { slow } -> Unified_state (Arch.Unified_cache.create ~slow cfg)
    | Multivliw -> Coherent_state (Arch.Coherent_cache.create cfg)
  in
  { state; decode }

let state t = t.state
let decode t = t.decode

(* One machine per swept configuration: the struct-of-arrays state of a
   batched executor run.  Each entry may override the attraction-buffer
   capacity — the per-cell knob of the AB-size sweeps — while the
   plan-side geometry (clusters, interleaving) stays [cfg]'s. *)
let create_batch cfg specs =
  Array.of_list
    (List.map
       (fun (arch, ab_entries) ->
         let cfg =
           match ab_entries with
           | None -> cfg
           | Some n -> { cfg with Arch.Config.ab_entries = n }
         in
         create cfg arch)
       specs)

let access t out ~attract ~now ~cluster ~addr ~store =
  let block = Arch.Config.block_of t.decode addr in
  match t.state with
  | Interleaved_state c ->
      Arch.Interleaved_cache.access c out ~attract ~now ~cluster ~block
        ~home:(Arch.Config.home_of t.decode addr) ~store
  | Unified_state c -> Arch.Unified_cache.access c out ~now ~block
  | Coherent_state c ->
      Arch.Coherent_cache.access c out ~now ~cluster ~block ~store

let end_of_loop t =
  match t.state with
  | Interleaved_state c -> Arch.Interleaved_cache.end_of_loop c
  | Unified_state c -> Arch.Unified_cache.end_of_loop c
  | Coherent_state c -> Arch.Coherent_cache.end_of_loop c

let traffic_summary t =
  match t.state with
  | Interleaved_state c ->
      let tr = Arch.Interleaved_cache.traffic c in
      [
        ("remote words", tr.Arch.Interleaved_cache.remote_words);
        ("block fills", tr.Arch.Interleaved_cache.block_fills);
        ("attractions", tr.Arch.Interleaved_cache.attractions);
      ]
  | Unified_state _ -> []
  | Coherent_state c ->
      let tr = Arch.Coherent_cache.traffic c in
      [
        ("invalidations", tr.Arch.Coherent_cache.invalidations);
        ("cache-to-cache", tr.Arch.Coherent_cache.cache_to_cache);
        ("memory fills", tr.Arch.Coherent_cache.memory_fills);
        ("snoops", tr.Arch.Coherent_cache.snoops);
      ]
