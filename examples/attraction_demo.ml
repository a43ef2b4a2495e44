(* Attraction Buffers under the microscope.

     dune exec examples/attraction_demo.exe

   Drives the word-interleaved cache directly: a remote hit attracts its
   whole subblock into the requesting cluster's buffer, the next access
   is local, a store does not attract, and the buffer is flushed between
   loops.  Then shows the buffer overflowing under epicdec's
   19-instruction chain and the compiler's "attractable" hints fixing
   the thrash (Section 5.2). *)

module Access = Vliw_arch.Access
module Config = Vliw_arch.Config
module IC = Vliw_arch.Interleaved_cache
module Machine = Vliw_sim.Machine
module Stats = Vliw_sim.Stats
module Context = Vliw_experiments.Context
module WL = Vliw_workloads

let () =
  let cfg = Config.default in
  let c = IC.create ~with_ab:true cfg in
  let r = Access.scratch () in
  let dec = Config.decoder cfg in
  let show what ~now ~cluster ~addr =
    IC.access c r ~attract:true ~now ~cluster ~block:(Config.block_of dec addr)
      ~home:(Config.home_of dec addr) ~store:false;
    Format.printf "  %-34s -> %-11s (ready at %d)@." what
      (Access.kind_to_string r.Access.s_kind)
      r.Access.s_ready_at
  in
  Format.printf "Word 0 lives in cluster 0; cluster 1 wants it.@.";
  show "cluster 0 reads word 0 (cold)" ~now:0 ~cluster:0 ~addr:0;
  show "cluster 1 reads word 0" ~now:100 ~cluster:1 ~addr:0;
  show "cluster 1 reads word 0 again" ~now:200 ~cluster:1 ~addr:0;
  show "cluster 1 reads word 16 (same subblock)" ~now:300 ~cluster:1 ~addr:16;
  IC.end_of_loop c;
  show "after the inter-loop flush" ~now:400 ~cluster:1 ~addr:0;
  Format.printf "@.The epicdec overflow (whole-benchmark stall cycles):@.";
  let ctx = Context.create () in
  let bench = WL.Mediabench.find "epicdec" in
  let spec = Context.interleaved `Ipbc in
  let points =
    [
      ("16-entry buffers", 16, false);
      ("16-entry buffers + hints", 16, true);
      ("8-entry buffers", 8, false);
      ("8-entry buffers + hints", 8, true);
    ]
  in
  (* The four points are cells of one batch: one traversal of each
     loop's access plan simulates them all. *)
  let cells =
    List.map
      (fun (_, ab_entries, hints) ->
        Context.cell ~ab_entries ~hints
          (Machine.Word_interleaved { attraction_buffers = true }))
      points
  in
  List.iter2
    (fun (label, _, _) (s, _) ->
      Format.printf "  %-28s stall = %d@." label (Stats.stall_cycles s))
    points
    (Context.run_batch ctx bench spec cells)
