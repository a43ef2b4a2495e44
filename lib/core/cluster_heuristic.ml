module Ddg = Vliw_ir.Ddg
module Operation = Vliw_ir.Operation
module Engine = Vliw_sched.Engine

type policy =
  | All_free
  | Ibc of Chains.t
  | Ipbc of Chains.t * Profile.t
  | Preferred_no_chains of Profile.t

let chain_cluster chains profile c =
  let votes = Profile.weighted_accesses profile (Chains.members chains c) in
  let best = ref 0 in
  Array.iteri (fun i v -> if v > votes.(!best) then best := i) votes;
  !best

(* Chain id per operation, -1 outside every chain. *)
let chain_index ddg chains =
  let chain = Array.make (Ddg.n_ops ddg) (-1) in
  for c = 0 to Chains.n_chains chains - 1 do
    List.iter (fun i -> chain.(i) <- c) (Chains.members chains c)
  done;
  chain

(* The engine asks for a choice once per placement of every operation,
   so every policy answers from arrays of prebuilt [Engine.choice]
   values and allocates nothing per call; IBC builds one [Forced] per
   chain it pins. *)
let hooks ddg = function
  | All_free -> Engine.default_hooks
  | Ibc chains ->
      let chain = chain_index ddg chains in
      let pinned = Array.make (Chains.n_chains chains) Engine.Free in
      {
        Engine.reset =
          (fun () -> Array.fill pinned 0 (Array.length pinned) Engine.Free);
        choice = (fun v -> if chain.(v) < 0 then Engine.Free else pinned.(chain.(v)));
        on_scheduled =
          (fun ~op ~cluster ->
            let c = chain.(op) in
            if c >= 0 then
              match pinned.(c) with
              | Engine.Free -> pinned.(c) <- Engine.Forced cluster
              | Engine.Forced _ -> ());
      }
  | Ipbc (chains, profile) ->
      let chain = chain_index ddg chains in
      let forced =
        Array.init (Chains.n_chains chains) (fun c ->
            Engine.Forced (chain_cluster chains profile c))
      in
      let choices =
        Array.map (fun c -> if c < 0 then Engine.Free else forced.(c)) chain
      in
      { Engine.default_hooks with choice = Array.get choices }
  | Preferred_no_chains profile ->
      let choices =
        Array.map
          (fun o ->
            if Operation.is_memory o then
              match Profile.get profile o.Operation.id with
              | Some p -> Engine.Forced (Profile.preferred_cluster p)
              | None -> Engine.Free
            else Engine.Free)
          (Ddg.ops ddg)
      in
      { Engine.default_hooks with choice = Array.get choices }
