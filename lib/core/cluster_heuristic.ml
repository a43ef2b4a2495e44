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

let hooks ddg = function
  | All_free -> Engine.default_hooks
  | Ibc chains ->
      let pinned = Array.make (Chains.n_chains chains) None in
      {
        Engine.reset = (fun () -> Array.fill pinned 0 (Array.length pinned) None);
        choice =
          (fun v ->
            match Chains.chain_of chains v with
            | None -> Engine.Free
            | Some c -> (
                match pinned.(c) with
                | Some cl -> Engine.Forced cl
                | None -> Engine.Free));
        on_scheduled =
          (fun ~op ~cluster ->
            match Chains.chain_of chains op with
            | Some c when pinned.(c) = None -> pinned.(c) <- Some cluster
            | Some _ | None -> ());
      }
  | Ipbc (chains, profile) ->
      let resolved =
        Array.init (Chains.n_chains chains) (chain_cluster chains profile)
      in
      {
        Engine.default_hooks with
        choice =
          (fun v ->
            match Chains.chain_of chains v with
            | None -> Engine.Free
            | Some c -> Engine.Forced resolved.(c));
      }
  | Preferred_no_chains profile ->
      {
        Engine.default_hooks with
        choice =
          (fun v ->
            if Operation.is_memory (Ddg.op ddg v) then
              match Profile.get profile v with
              | Some p -> Engine.Forced (Profile.preferred_cluster p)
              | None -> Engine.Free
            else Engine.Free);
      }
