(* Gradient broadcast for a large model: a parameter server pushes a
   512 MB shard to 512 GPUs, the workload the paper's introduction
   motivates.  Simulates the push under all six schemes and prints the
   collective completion times.

   Run with:  dune exec examples/gradient_broadcast.exe *)

open Peel_topology
open Peel_workload
open Peel_collective
module Rng = Peel_util.Rng

let () =
  let fabric = Fabric.fat_tree ~k:8 ~hosts_per_tor:4 ~gpus_per_host:8 () in
  let spec = Spec.single fabric (Rng.create 2024) ~scale:512 ~bytes:512e6 in
  Printf.printf "%s — broadcasting 512 MB to 512 GPUs\n\n"
    (Fabric.describe fabric);
  let rows =
    List.map
      (fun scheme ->
        let out = Runner.run fabric scheme [ spec ] in
        let cct = List.hd out.Runner.ccts in
        (scheme, cct, out.Runner.events))
      Scheme.all
  in
  let best = List.fold_left (fun acc (_, c, _) -> Float.min acc c) infinity rows in
  Peel_util.Table.print
    ~header:[ "scheme"; "CCT"; "vs best"; "sim events" ]
    (List.map
       (fun (scheme, cct, events) ->
         [
           Scheme.to_string scheme;
           Peel_util.Table.fsec cct;
           Peel_util.Table.ffactor (cct /. best);
           string_of_int events;
         ])
       rows);
  print_newline ();
  (* The punchline the paper opens with: unicast schedules move the same
     bytes many times; multicast moves them once. *)
  let g = Fabric.graph fabric in
  let ring =
    Peel_baselines.Ring.schedule fabric ~source:spec.source ~members:spec.members
  in
  let ring_links =
    Peel_baselines.Traffic.total g
      (Peel_baselines.Traffic.link_loads g ring.Peel_baselines.Ring.hops)
  in
  let tree = Option.get (Peel.multicast_tree fabric ~source:spec.source ~dests:spec.dests) in
  let tree_links =
    Peel_baselines.Traffic.total g (Peel_baselines.Traffic.tree_loads g tree)
  in
  Printf.printf
    "fabric-link traversals: ring %d vs multicast %d — every traversal is 512 MB on the wire\n"
    ring_links tree_links
