(* Tests for the core PEEL library: hierarchical prefix packetization
   (Plan), the facade, and integration with trees and rules. *)

open Peel_topology
module Plan = Peel.Plan
module Cover = Peel_prefix.Cover
module Rng = Peel_util.Rng

let fat8 () = Fabric.fat_tree ~k:8 ~hosts_per_tor:4 ~gpus_per_host:8 ()

let endpoints_range fabric lo n =
  let eps = Fabric.endpoints fabric in
  List.init n (fun i -> eps.(lo + i))

(* ------------------------------------------------------------------ *)
(* Plan construction                                                   *)
(* ------------------------------------------------------------------ *)

let test_plan_single_full_pod () =
  (* One whole pod (128 GPUs in an 8-ary tree with 8 gpus/host): the
     pod's 4 ToRs collapse to one prefix, one packet. *)
  let f = fat8 () in
  let members = endpoints_range f 0 128 in
  let source = List.hd members in
  let dests = List.tl members in
  let plan = Plan.build f ~source ~dests in
  Alcotest.(check int) "one packet" 1 (Plan.num_packets plan);
  Alcotest.(check int) "no waste" 0 (Plan.waste_tor_count plan);
  (match Plan.validate f plan with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let p = List.hd plan.Plan.packets in
  Alcotest.(check int) "tor prefix covers pod" 0 p.Plan.tor_prefix.Cover.len

let test_plan_half_fabric_contiguous () =
  (* 512 GPUs = pods 0..3 fully: one pod-prefix (4 pods) x one
     tor-prefix => a single packet, like the Fig. 5 setup. *)
  let f = fat8 () in
  let members = endpoints_range f 0 512 in
  let source = List.hd members in
  let plan = Plan.build f ~source ~dests:(List.tl members) in
  Alcotest.(check int) "one packet" 1 (Plan.num_packets plan);
  let p = List.hd plan.Plan.packets in
  Alcotest.(check (list int)) "pods 0-3" [ 0; 1; 2; 3 ] p.Plan.pods

let test_plan_misaligned_fragments () =
  (* Start mid-pod: the group spans partial pods with different ToR
     signatures -> more packets, still exact. *)
  let f = fat8 () in
  let members = endpoints_range f 64 128 in
  let source = List.hd members in
  let plan = Plan.build f ~source ~dests:(List.tl members) in
  Alcotest.(check bool) "more than one packet" true (Plan.num_packets plan > 1);
  Alcotest.(check int) "still exact" 0 (Plan.waste_tor_count plan);
  match Plan.validate f plan with Ok () -> () | Error e -> Alcotest.fail e

let test_plan_paper_prefix_example () =
  (* Destinations on ToR ids {2,3,4,5,6,7} of one pod in a 16-ary tree
     (m=3): the §3.2 example — covers 1** and 01*. *)
  let f = Fabric.fat_tree ~k:16 ~hosts_per_tor:1 () in
  let tors = Fabric.tors_of_pod f 0 in
  let hosts_of tor =
    match f with
    | Fabric.Ft ft -> ft.Fat_tree.hosts_of_tor.(Peel_topology.Fat_tree.tor_index ft tor)
    | Fabric.Ls _ | Fabric.Rl _ | Fabric.Zo _ -> assert false
  in
  let dests = List.concat_map (fun i -> Array.to_list (hosts_of tors.(i))) [ 2; 3; 4; 5; 6; 7 ] in
  (* Source in the same pod, ToR 0. *)
  let source = (hosts_of tors.(0)).(0) in
  let plan = Plan.build f ~source ~dests in
  let tor_prefixes =
    List.map
      (fun p -> Cover.to_string ~m:3 p.Plan.tor_prefix)
      plan.Plan.packets
    |> List.sort compare
  in
  Alcotest.(check (list string)) "paper covers" [ "01*"; "1**" ] tor_prefixes

let test_plan_header_bytes () =
  (* 8-ary fat-tree: tor field m=2 + 2 bits len; pod field 3 + 2: 9 bits
     -> 2 bytes, comfortably under the paper's 8 B budget. *)
  let f = fat8 () in
  Alcotest.(check int) "2 bytes" 2 (Plan.header_bytes_for f);
  let ls = Fabric.leaf_spine ~spines:16 ~leaves:48 ~hosts_per_leaf:2 () in
  (* 48 leaves -> m=6 + 3 bits len = 9 bits -> 2 bytes; single pod. *)
  Alcotest.(check int) "leaf-spine 2 bytes" 2 (Plan.header_bytes_for ls)

let test_plan_budget_overcovers () =
  (* Alternating racks in one pod of a 16-ary tree (m=3): exact needs 4
     prefixes; budget 1 covers the whole pod and wastes 4 racks. *)
  let f = Fabric.fat_tree ~k:16 ~hosts_per_tor:1 () in
  let tors = Fabric.tors_of_pod f 0 in
  let hosts_of tor =
    match f with
    | Fabric.Ft ft -> ft.Fat_tree.hosts_of_tor.(Peel_topology.Fat_tree.tor_index ft tor)
    | Fabric.Ls _ | Fabric.Rl _ | Fabric.Zo _ -> assert false
  in
  let dests = List.concat_map (fun i -> Array.to_list (hosts_of tors.(i))) [ 0; 2; 4; 6 ] in
  (* Source on a non-member ToR so all four target racks stay targets. *)
  let source = (hosts_of tors.(1)).(0) in
  let exact = Plan.build f ~source ~dests in
  Alcotest.(check int) "exact packets" 4 (Plan.num_packets exact);
  Alcotest.(check int) "exact no waste" 0 (Plan.waste_tor_count exact);
  let tight = Plan.build ~budget:1 f ~source ~dests in
  Alcotest.(check int) "one packet" 1 (Plan.num_packets tight);
  Alcotest.(check int) "wastes 4 racks" 4 (Plan.waste_tor_count tight);
  match Plan.validate f tight with Ok () -> () | Error e -> Alcotest.fail e

(* A budget below 1 is rejected where it enters, for an empty group as
   for any other. *)
let test_plan_budget_below_one () =
  let f = Fabric.leaf_spine ~spines:2 ~leaves:4 ~hosts_per_leaf:2 () in
  let hosts = Fabric.hosts f in
  List.iter
    (fun dests ->
      Alcotest.check_raises "budget 0"
        (Invalid_argument "Plan.build: budget must be >= 1") (fun () ->
          ignore (Plan.build ~budget:0 f ~source:hosts.(0) ~dests)))
    [ []; [ hosts.(3); hosts.(5) ] ]

let test_plan_leaf_spine_single_pod () =
  let ls = Fabric.leaf_spine ~spines:4 ~leaves:8 ~hosts_per_leaf:2 () in
  let hosts = Fabric.hosts ls in
  let members = List.init 8 (fun i -> hosts.(i)) in
  let source = List.hd members in
  let plan = Plan.build ls ~source ~dests:(List.tl members) in
  List.iter
    (fun p ->
      Alcotest.(check bool) "no pod prefix" true (p.Plan.pod_prefix = None))
    plan.Plan.packets;
  match Plan.validate ls plan with Ok () -> () | Error e -> Alcotest.fail e

let test_packet_trees_valid () =
  let f = fat8 () in
  let members = endpoints_range f 100 64 in
  let source = List.hd members in
  let dests = List.tl members in
  let plan = Plan.build f ~source ~dests in
  List.iter
    (fun packet ->
      match Plan.packet_tree f ~source packet with
      | None -> Alcotest.fail "packet tree missing"
      | Some tree -> (
          match
            Peel_steiner.Tree.validate (Fabric.graph f) tree
              ~dests:packet.Plan.endpoints
          with
          | Ok () -> ()
          | Error e -> Alcotest.fail e))
    plan.Plan.packets

(* Property: plans partition the destination set exactly for arbitrary
   member subsets. *)
let prop_plan_partitions =
  QCheck.Test.make ~name:"plan partitions destinations" ~count:50
    QCheck.(int_range 0 10000)
    (fun seed ->
      let f = Fabric.fat_tree ~k:4 ~gpus_per_host:2 () in
      let rng = Rng.create seed in
      let eps = Fabric.endpoints f in
      let n = Array.length eps in
      let k = 2 + Rng.int rng (n - 2) in
      let members =
        Rng.sample_without_replacement rng n k |> List.map (fun i -> eps.(i))
      in
      let source = List.nth members (Rng.int rng (List.length members)) in
      let dests = List.filter (fun m -> m <> source) members in
      let plan = Plan.build f ~source ~dests in
      Plan.validate f plan = Ok ()
      && Plan.waste_tor_count plan = 0
      && List.sort compare (List.concat_map (fun p -> p.Plan.endpoints) plan.Plan.packets)
         = List.sort compare dests)

(* ------------------------------------------------------------------ *)
(* Facade                                                              *)
(* ------------------------------------------------------------------ *)

let test_facade_multicast_tree_symmetric () =
  let f = fat8 () in
  let eps = Fabric.endpoints f in
  let dests = [ eps.(10); eps.(200); eps.(900) ] in
  match Peel.multicast_tree f ~source:eps.(0) ~dests with
  | None -> Alcotest.fail "expected tree"
  | Some tree -> (
      match Peel.Tree.validate (Fabric.graph f) tree ~dests with
      | Ok () -> ()
      | Error e -> Alcotest.fail e)

let test_facade_multicast_tree_asymmetric () =
  let f = Fabric.leaf_spine ~spines:4 ~leaves:6 ~hosts_per_leaf:2 () in
  let rng = Rng.create 3 in
  let _ = Fabric.fail_random f ~rng ~tier:`All ~fraction:0.2 () in
  let hosts = Fabric.hosts f in
  let dests = [ hosts.(3); hosts.(7); hosts.(11) ] in
  (match Peel.multicast_tree f ~source:hosts.(0) ~dests with
  | None -> Alcotest.fail "expected tree (hosts stay connected)"
  | Some tree -> (
      match Peel.Tree.validate (Fabric.graph f) tree ~dests with
      | Ok () -> ()
      | Error e -> Alcotest.fail e));
  Graph.restore_all (Fabric.graph f)

let test_facade_switch_rules () =
  (* 8-ary: m=2 -> 7 rules (= k-1). 64-ary: 63. *)
  Alcotest.(check int) "k=8" 7 (Peel.switch_rules (fat8 ()));
  let f64 = Fabric.fat_tree ~k:64 ~hosts_per_tor:1 () in
  Alcotest.(check int) "k=64 -> 63 rules" 63 (Peel.switch_rules f64)

let test_facade_state_table_consistent () =
  let f = fat8 () in
  Alcotest.(check int) "table size = switch_rules" (Peel.switch_rules f)
    (Peel.Rules.size (Peel.state_table f))

let test_facade_header_bytes_small () =
  let f = fat8 () in
  Alcotest.(check bool) "< 8 B" true (Peel.header_bytes f < 8)

(* ------------------------------------------------------------------ *)
(* Dataplane                                                           *)
(* ------------------------------------------------------------------ *)

let test_dataplane_matches_plan () =
  let f = fat8 () in
  let members = endpoints_range f 200 96 in
  let source = List.hd members in
  let plan = Plan.build f ~source ~dests:(List.tl members) in
  match Peel.Dataplane.verify f plan with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_dataplane_budgeted_plan () =
  (* Over-covering plans must also verify: waste racks are part of the
     data plane's delivery set. *)
  let f = Fabric.fat_tree ~k:16 ~hosts_per_tor:1 () in
  let tors = Fabric.tors_of_pod f 0 in
  let hosts_of tor =
    match f with
    | Fabric.Ft ft -> ft.Fat_tree.hosts_of_tor.(Peel_topology.Fat_tree.tor_index ft tor)
    | Fabric.Ls _ | Fabric.Rl _ | Fabric.Zo _ -> assert false
  in
  let dests = List.concat_map (fun i -> Array.to_list (hosts_of tors.(i))) [ 0; 2; 4; 6 ] in
  let source = (hosts_of tors.(1)).(0) in
  let plan = Plan.build ~budget:1 f ~source ~dests in
  (match Peel.Dataplane.verify f plan with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let deliveries = Peel.Dataplane.deliver f plan in
  Alcotest.(check int) "one packet delivery" 1 (List.length deliveries);
  Alcotest.(check int) "whole pod reached" 8
    (List.length (List.hd deliveries).Peel.Dataplane.tors_reached)

let test_dataplane_leaf_spine () =
  let ls = Fabric.leaf_spine ~spines:4 ~leaves:48 ~hosts_per_leaf:2 () in
  let hosts = Fabric.hosts ls in
  let members = List.init 16 (fun i -> hosts.(20 + i)) in
  let source = List.hd members in
  let plan = Plan.build ls ~source ~dests:(List.tl members) in
  match Peel.Dataplane.verify ls plan with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let prop_dataplane_always_verifies =
  QCheck.Test.make ~name:"dataplane executes every plan exactly" ~count:60
    QCheck.(pair (int_range 0 10000) (bool))
    (fun (seed, budgeted) ->
      let f = Fabric.fat_tree ~k:4 ~gpus_per_host:2 () in
      let rng = Rng.create seed in
      let eps = Fabric.endpoints f in
      let n = Array.length eps in
      let k = 2 + Rng.int rng (n - 2) in
      let members =
        Rng.sample_without_replacement rng n k |> List.map (fun i -> eps.(i))
      in
      let source = List.nth members (Rng.int rng (List.length members)) in
      let dests = List.filter (fun m -> m <> source) members in
      let plan =
        if budgeted then Plan.build ~budget:2 f ~source ~dests
        else Plan.build f ~source ~dests
      in
      Peel.Dataplane.verify f plan = Ok ())

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "peel_core"
    [
      ( "plan",
        [
          Alcotest.test_case "single full pod" `Quick test_plan_single_full_pod;
          Alcotest.test_case "half fabric contiguous" `Quick test_plan_half_fabric_contiguous;
          Alcotest.test_case "misaligned fragments" `Quick test_plan_misaligned_fragments;
          Alcotest.test_case "paper prefix example" `Quick test_plan_paper_prefix_example;
          Alcotest.test_case "header bytes" `Quick test_plan_header_bytes;
          Alcotest.test_case "budget overcovers" `Quick test_plan_budget_overcovers;
          Alcotest.test_case "budget below 1" `Quick test_plan_budget_below_one;
          Alcotest.test_case "leaf-spine single pod" `Quick test_plan_leaf_spine_single_pod;
          Alcotest.test_case "packet trees valid" `Quick test_packet_trees_valid;
          qt prop_plan_partitions;
        ] );
      ( "dataplane",
        [
          Alcotest.test_case "matches plan" `Quick test_dataplane_matches_plan;
          Alcotest.test_case "budgeted plan" `Quick test_dataplane_budgeted_plan;
          Alcotest.test_case "leaf-spine" `Quick test_dataplane_leaf_spine;
          qt prop_dataplane_always_verifies;
        ] );
      ( "facade",
        [
          Alcotest.test_case "tree symmetric" `Quick test_facade_multicast_tree_symmetric;
          Alcotest.test_case "tree asymmetric" `Quick test_facade_multicast_tree_asymmetric;
          Alcotest.test_case "switch rules" `Quick test_facade_switch_rules;
          Alcotest.test_case "state table" `Quick test_facade_state_table_consistent;
          Alcotest.test_case "header bytes" `Quick test_facade_header_bytes_small;
        ] );
    ]
