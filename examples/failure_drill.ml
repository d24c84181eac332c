(* Failure drill: watch the layer-peeling greedy route a collective
   around dead links in an asymmetric leaf-spine, and what that does to
   completion time versus unicast baselines.

   Run with:  dune exec examples/failure_drill.exe *)

open Peel_topology
open Peel_workload
open Peel_collective
module Rng = Peel_util.Rng

let () =
  let fabric =
    Fabric.leaf_spine ~spines:16 ~leaves:48 ~hosts_per_leaf:2 ~gpus_per_host:8 ()
  in
  let g = Fabric.graph fabric in
  Printf.printf "%s\n\n" (Fabric.describe fabric);
  let spec = Spec.single fabric (Rng.create 7) ~scale:64 ~bytes:8e6 in
  let source = spec.Spec.source and dests = spec.Spec.dests in
  List.iter
    (fun pct ->
      Graph.restore_all g;
      let failed =
        if pct = 0 then []
        else
          Fabric.fail_random fabric ~rng:(Rng.create (100 + pct)) ~tier:`All
            ~fraction:(float_of_int pct /. 100.0)
            ()
      in
      let tree =
        match Peel_steiner.Layer_peel.build g ~source ~dests with
        | Some t -> t
        | None -> failwith "unreachable"
      in
      (match Peel_steiner.Tree.validate g tree ~dests with
      | Ok () -> ()
      | Error e -> failwith e);
      let cct scheme = List.hd (Runner.run fabric scheme [ spec ]).Runner.ccts in
      Printf.printf
        "%2d%% links down (%3d cables): greedy tree %d links, depth %d | CCT peel %s, ring %s, tree %s\n%!"
        pct (List.length failed)
        (Peel_steiner.Tree.cost tree)
        (Peel_steiner.Tree.max_depth tree)
        (Peel_util.Table.fsec (cct Scheme.Peel))
        (Peel_util.Table.fsec (cct Scheme.Ring))
        (Peel_util.Table.fsec (cct Scheme.Btree)))
    [ 0; 1; 2; 4; 8; 10; 20 ];
  Graph.restore_all g;
  print_newline ();
  Printf.printf
    "the greedy tree never needs switch-state updates: the same %d static rules serve every draw\n"
    (Peel.switch_rules fabric)
