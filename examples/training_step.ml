(* Training step: the collectives a data-parallel training iteration
   actually issues — allreduce for gradients, allgather for sharded
   parameters, broadcast for checkpoints — compared across ring-based
   and PEEL-based algorithms, with link telemetry.

   Run with:  dune exec examples/training_step.exe *)

open Peel_topology
open Peel_workload
open Peel_collective
module Rng = Peel_util.Rng

let collective fabric ~scale ~bytes = Spec.single fabric (Rng.create 99) ~scale ~bytes

let () =
  (* One NIC'd GPU per server: every hop crosses the fabric, the regime
     where algorithm choice matters most. *)
  let fabric = Fabric.fat_tree ~k:8 ~hosts_per_tor:4 ~gpus_per_host:1 () in
  Printf.printf "%s — 64 workers, 64 MB gradients\n\n" (Fabric.describe fabric);
  let spec = collective fabric ~scale:64 ~bytes:64e6 in
  let cct out = List.hd out.Runner.ccts in
  let rows =
    [
      ( "broadcast (checkpoint push)",
        [
          ("ring", cct (Runner.run fabric Scheme.Ring [ spec ]));
          ("double tree", cct (Runner.run fabric Scheme.Dbtree [ spec ]));
          ("peel multicast", cct (Runner.run fabric Scheme.Peel [ spec ]));
        ] );
      ( "allgather (sharded params)",
        [
          ("ring", cct (Allgather.run fabric Allgather.Ring_exchange [ spec ]));
          ("peel multicast", cct (Allgather.run fabric Allgather.Peel_multicast [ spec ]));
        ] );
      ( "reduce (loss/metrics)",
        [
          ("ring", cct (Reduce.run fabric Reduce.Ring_pass [ spec ]));
          ("tree", cct (Reduce.run fabric Reduce.Btree_reduce [ spec ]));
        ] );
      ( "allreduce (gradients)",
        [
          ("ring (rs+ag)", cct (Allreduce.run fabric Allreduce.Ring_rs_ag [ spec ]));
          ("tree-reduce + peel", cct (Allreduce.run fabric Allreduce.Reduce_then_peel [ spec ]));
        ] );
    ]
  in
  List.iter
    (fun (title, entries) ->
      Printf.printf "%s\n" title;
      let best = List.fold_left (fun a (_, c) -> Float.min a c) infinity entries in
      List.iter
        (fun (name, c) ->
          Printf.printf "  %-20s %10s  %s\n" name (Peel_util.Table.fsec c)
            (if c = best then "<- fastest" else Peel_util.Table.ffactor (c /. best)))
        entries;
      print_newline ())
    rows;
  (* Where do the bytes actually go?  Telemetry from the allreduce runs. *)
  let show title algo =
    let out = Allreduce.run fabric algo [ spec ] in
    Printf.printf "%s — mean utilization by tier over the run:\n" title;
    List.iter
      (fun (tier, u) ->
        if u > 1e-6 then Printf.printf "  %-12s %5.1f%%\n" tier (100.0 *. u))
      (Peel_sim.Telemetry.tier_utilization out.Runner.telemetry);
    print_newline ()
  in
  show "ring allreduce" Allreduce.Ring_rs_ag;
  show "tree-reduce + peel broadcast" Allreduce.Reduce_then_peel
