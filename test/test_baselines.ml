(* Tests for peel_baselines: ring and binary-tree schedules, traffic
   accounting (paper Fig. 1), the RSBF Bloom-filter header model
   (Fig. 3) and the Orca behavioural model. *)

open Peel_topology
open Peel_baselines
module Rng = Peel_util.Rng

let fabric_small () = Fabric.leaf_spine ~spines:2 ~leaves:2 ~hosts_per_leaf:4 ()

(* ------------------------------------------------------------------ *)
(* Ring                                                                *)
(* ------------------------------------------------------------------ *)

let test_ring_order_and_hops () =
  let f = fabric_small () in
  let hosts = Array.to_list (Fabric.hosts f) in
  let source = List.nth hosts 2 in
  let r = Ring.schedule f ~source ~members:hosts in
  Alcotest.(check int) "order size" 8 (Array.length r.Ring.order);
  Alcotest.(check int) "source first" source r.Ring.order.(0);
  Alcotest.(check int) "N-1 hops" 7 (List.length r.Ring.hops);
  (* Every member except the source receives exactly once. *)
  let receivers = List.map snd r.Ring.hops |> List.sort compare in
  Alcotest.(check (list int)) "receivers"
    (List.sort compare (List.filter (fun h -> h <> source) hosts))
    receivers

let test_ring_wraps_around () =
  let f = fabric_small () in
  let hosts = Array.to_list (Fabric.hosts f) in
  let source = List.nth hosts 5 in
  let r = Ring.schedule f ~source ~members:hosts in
  (* Locality: successor of the last id wraps to the first id. *)
  let sorted = Array.of_list (List.sort compare hosts) in
  let last = sorted.(Array.length sorted - 1) in
  let first = sorted.(0) in
  Alcotest.(check bool) "wrap edge present" true
    (List.mem (last, first) r.Ring.hops)

let test_ring_rejects_singleton () =
  let f = fabric_small () in
  let h = (Fabric.hosts f).(0) in
  Alcotest.(check bool) "raises" true
    (try ignore (Ring.schedule f ~source:h ~members:[ h ]); false
     with Invalid_argument _ -> true)

let test_ring_rejects_nonmember_source () =
  let f = fabric_small () in
  let hosts = Array.to_list (Fabric.hosts f) in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Ring.schedule f ~source:(List.nth hosts 0) ~members:(List.tl hosts));
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Binary tree                                                         *)
(* ------------------------------------------------------------------ *)

let test_tree_edges_count () =
  let f = fabric_small () in
  let hosts = Array.to_list (Fabric.hosts f) in
  let source = List.hd hosts in
  let t = Binary_tree.schedule f ~source ~members:hosts in
  Alcotest.(check int) "N-1 edges" 7 (List.length t.Binary_tree.edges);
  Alcotest.(check int) "depth log2" 3 t.Binary_tree.depth

let test_tree_fanout_at_most_two () =
  let f = fabric_small () in
  let hosts = Array.to_list (Fabric.hosts f) in
  let source = List.nth hosts 3 in
  let t = Binary_tree.schedule f ~source ~members:hosts in
  List.iter
    (fun m ->
      Alcotest.(check bool) "fanout <= 2" true
        (List.length (Binary_tree.children t m) <= 2))
    hosts

let test_tree_every_member_reached_once () =
  let f = fabric_small () in
  let hosts = Array.to_list (Fabric.hosts f) in
  let source = List.nth hosts 6 in
  let t = Binary_tree.schedule f ~source ~members:hosts in
  let receivers = List.map snd t.Binary_tree.edges |> List.sort compare in
  Alcotest.(check (list int)) "each non-source once"
    (List.sort compare (List.filter (fun h -> h <> source) hosts))
    receivers

let test_tree_root_is_source () =
  let f = fabric_small () in
  let hosts = Array.to_list (Fabric.hosts f) in
  let source = List.nth hosts 4 in
  let t = Binary_tree.schedule f ~source ~members:hosts in
  Alcotest.(check int) "root" source t.Binary_tree.order.(0);
  (* The source never appears as a child. *)
  Alcotest.(check bool) "source not a receiver" false
    (List.exists (fun (_, c) -> c = source) t.Binary_tree.edges)

(* ------------------------------------------------------------------ *)
(* Traffic accounting (Fig. 1)                                         *)
(* ------------------------------------------------------------------ *)

let test_fig1_ring_tree_overshoot () =
  (* The paper's Fig. 1 fabric: 2 spines, 2 leaves, 8 GPUs total (4 per
     leaf as hosts here), Broadcast from G0. *)
  let f = fabric_small () in
  let g = Fabric.graph f in
  let hosts = Array.to_list (Fabric.hosts f) in
  let source = List.hd hosts in
  let dests = List.tl hosts in
  let ring = Ring.schedule f ~source ~members:hosts in
  let tree = Binary_tree.schedule f ~source ~members:hosts in
  let opt = Peel_steiner.Symmetric.build f ~source ~dests in
  let ring_total = Traffic.total g (Traffic.link_loads g ring.Ring.hops) in
  let tree_total = Traffic.total g (Traffic.link_loads g tree.Binary_tree.edges) in
  let opt_total = Traffic.total g (Traffic.tree_loads g opt) in
  (* Optimal: 1 up + 1 to spine + 1 to other leaf + 7 down = 10 links. *)
  Alcotest.(check int) "optimal total" 10 opt_total;
  Alcotest.(check bool) "ring overshoots" true (ring_total > opt_total);
  Alcotest.(check bool) "tree overshoots" true (tree_total > opt_total);
  let ring_over = Traffic.overshoot ~baseline:ring_total ~optimal:opt_total in
  let tree_over = Traffic.overshoot ~baseline:tree_total ~optimal:opt_total in
  (* Paper: 70-80% more bandwidth; allow a generous band around it. *)
  Alcotest.(check bool) "ring overshoot 40-120%" true
    (ring_over >= 0.4 && ring_over <= 1.2);
  Alcotest.(check bool) "tree overshoot 40-200%" true
    (tree_over >= 0.4 && tree_over <= 2.0)

let test_link_loads_simple_path () =
  let f = fabric_small () in
  let g = Fabric.graph f in
  let hosts = Fabric.hosts f in
  let loads = Traffic.link_loads g [ (hosts.(0), hosts.(1)) ] in
  (* host0 -> leaf -> host1: two directed links. *)
  Alcotest.(check int) "2 links" 2 (Array.fold_left ( + ) 0 loads)

let test_core_load_counts_only_spine_links () =
  let f = fabric_small () in
  let g = Fabric.graph f in
  let hosts = Fabric.hosts f in
  (* Cross-leaf pair: host -> leaf -> spine -> leaf -> host. *)
  let loads = Traffic.link_loads g [ (hosts.(0), hosts.(7)) ] in
  Alcotest.(check int) "total 4" 4 (Array.fold_left ( + ) 0 loads);
  Alcotest.(check int) "core 2" 2 (Traffic.core_load g loads)

let test_overshoot_math () =
  Alcotest.(check (float 1e-9)) "80%" 0.8 (Traffic.overshoot ~baseline:18 ~optimal:10)

(* ------------------------------------------------------------------ *)
(* RSBF model (Fig. 3)                                                 *)
(* ------------------------------------------------------------------ *)

let test_rsbf_bits_per_element () =
  (* 1% fpr ~ 9.57 bits/element, the classic Bloom filter figure. *)
  let b = Rsbf.bits_per_element ~fpr:0.01 in
  Alcotest.(check bool) "9.5 +- 0.2" true (Float.abs (b -. 9.57) < 0.2)

let test_rsbf_header_growth_in_k () =
  let sizes =
    List.map (fun k -> Rsbf.header_bytes ~k ~fpr:0.05) [ 4; 8; 16; 32; 64 ]
  in
  let rec increasing = function
    | a :: (b :: _ as rest) -> a < b && increasing rest
    | _ -> true
  in
  Alcotest.(check bool) "monotone in k" true (increasing sizes)

let test_rsbf_mtu_crossing () =
  (* Paper Fig. 3: even at 20% FPR the header exceeds one MTU once the
     degree passes 32; at small k it fits easily. *)
  Alcotest.(check bool) "k=8 fits" false (Rsbf.exceeds_mtu ~k:8 ~fpr:0.20 ());
  Alcotest.(check bool) "k=16 fits" false (Rsbf.exceeds_mtu ~k:16 ~fpr:0.20 ());
  Alcotest.(check bool) "k=64 explodes" true (Rsbf.exceeds_mtu ~k:64 ~fpr:0.20 ());
  (* Stricter FPRs cross earlier. *)
  Alcotest.(check bool) "k=32 at 1% explodes" true (Rsbf.exceeds_mtu ~k:32 ~fpr:0.01 ())

let test_rsbf_bandwidth_overhead_over_100pct () =
  (* Paper: "bandwidth overhead surpasses 100%" — with MTU-sized
     payloads at k=64 the header is bigger than the payload. *)
  Alcotest.(check bool) "over 100%" true
    (Rsbf.bandwidth_overhead ~k:64 ~fpr:0.20 ~payload:1500 > 1.0)

let test_rsbf_false_positive_links () =
  let fp = Rsbf.expected_false_positive_links ~k:16 ~fpr:0.10 in
  Alcotest.(check bool) "positive" true (fp > 0.0);
  let fp_low = Rsbf.expected_false_positive_links ~k:16 ~fpr:0.01 in
  Alcotest.(check bool) "scales with fpr" true (fp > fp_low)

let prop_rsbf_monotone_in_fpr =
  QCheck.Test.make ~name:"rsbf header shrinks as fpr grows" ~count:50
    QCheck.(pair (int_range 1 5) (float_range 0.01 0.15))
    (fun (i, fpr) ->
      let k = 4 * (1 lsl i) in
      let k = if k > 64 then 64 else k in
      Rsbf.header_bytes ~k ~fpr > Rsbf.header_bytes ~k ~fpr:(fpr +. 0.05))

(* ------------------------------------------------------------------ *)
(* Orca model                                                          *)
(* ------------------------------------------------------------------ *)

let test_orca_plan_agents_one_per_server () =
  let f = Fabric.leaf_spine ~spines:2 ~leaves:4 ~hosts_per_leaf:2 ~gpus_per_host:4 () in
  let gpus = Fabric.gpus f in
  let source = gpus.(0) in
  (* Destinations: all GPUs of servers 2 and 3 (8 GPUs). *)
  let dests = List.init 8 (fun i -> gpus.(8 + i)) in
  let rng = Rng.create 7 in
  let plan = Orca.plan f ~rng ~source ~dests in
  (* Fabric tree reaches exactly 2 agents (one per server); 6 members
     come via NVLink relays. *)
  let tree_dests =
    List.filter (fun d -> Peel_steiner.Tree.mem plan.Orca.tree d) dests
  in
  Alcotest.(check int) "2 agents in tree" 2 (List.length tree_dests);
  Alcotest.(check int) "6 relays" 6 (List.length plan.Orca.relays);
  (* Every dest is either in the tree or relayed to. *)
  List.iter
    (fun d ->
      let covered =
        Peel_steiner.Tree.mem plan.Orca.tree d
        || List.exists (fun (_, m) -> m = d) plan.Orca.relays
      in
      Alcotest.(check bool) "covered" true covered)
    dests

let test_orca_setup_delay_distribution () =
  let rng = Rng.create 11 in
  let delays =
    List.init 5000 (fun _ ->
        let d = Orca.sample_setup_delay rng in
        Alcotest.(check bool) "nonneg" true (d >= 0.0);
        d)
  in
  (* Truncation at 0 pulls the mean slightly above 10 ms. *)
  let mu = Peel_util.Stats.mean delays in
  Alcotest.(check bool) "mean near 10-11 ms" true (mu > 0.009 && mu < 0.013)

let test_orca_relays_within_server () =
  let f = Fabric.leaf_spine ~spines:2 ~leaves:4 ~hosts_per_leaf:2 ~gpus_per_host:4 () in
  let gpus = Fabric.gpus f in
  let source = gpus.(0) in
  let dests = List.init 8 (fun i -> gpus.(8 + i)) in
  let rng = Rng.create 7 in
  let plan = Orca.plan f ~rng ~source ~dests in
  Alcotest.(check bool) "has relays" true (plan.Orca.relays <> []);
  List.iter
    (fun (agent, member) ->
      Alcotest.(check int) "same server"
        (Fabric.endpoint_host f agent)
        (Fabric.endpoint_host f member))
    plan.Orca.relays

let test_orca_host_fabric_no_relays () =
  (* Without GPUs the server is the endpoint: one agent per host, no
     relays — Orca degenerates to tree + setup delay. *)
  let f = Fabric.leaf_spine ~spines:2 ~leaves:4 ~hosts_per_leaf:4 () in
  let hosts = Fabric.hosts f in
  let source = hosts.(0) in
  let dests = List.init 8 (fun i -> hosts.(4 + i)) in
  let plan = Orca.plan f ~rng:(Rng.create 7) ~source ~dests in
  Alcotest.(check int) "no relays" 0 (List.length plan.Orca.relays);
  List.iter
    (fun d ->
      Alcotest.(check bool) "in tree" true (Peel_steiner.Tree.mem plan.Orca.tree d))
    dests

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "peel_baselines"
    [
      ( "ring",
        [
          Alcotest.test_case "order and hops" `Quick test_ring_order_and_hops;
          Alcotest.test_case "wraps around" `Quick test_ring_wraps_around;
          Alcotest.test_case "rejects singleton" `Quick test_ring_rejects_singleton;
          Alcotest.test_case "rejects bad source" `Quick test_ring_rejects_nonmember_source;
        ] );
      ( "binary_tree",
        [
          Alcotest.test_case "edge count/depth" `Quick test_tree_edges_count;
          Alcotest.test_case "fanout <= 2" `Quick test_tree_fanout_at_most_two;
          Alcotest.test_case "members reached once" `Quick test_tree_every_member_reached_once;
          Alcotest.test_case "root is source" `Quick test_tree_root_is_source;
        ] );
      ( "traffic",
        [
          Alcotest.test_case "fig1 overshoot" `Quick test_fig1_ring_tree_overshoot;
          Alcotest.test_case "simple path" `Quick test_link_loads_simple_path;
          Alcotest.test_case "core load" `Quick test_core_load_counts_only_spine_links;
          Alcotest.test_case "overshoot math" `Quick test_overshoot_math;
        ] );
      ( "rsbf",
        [
          Alcotest.test_case "bits per element" `Quick test_rsbf_bits_per_element;
          Alcotest.test_case "header grows in k" `Quick test_rsbf_header_growth_in_k;
          Alcotest.test_case "MTU crossing" `Quick test_rsbf_mtu_crossing;
          Alcotest.test_case "bandwidth overhead" `Quick test_rsbf_bandwidth_overhead_over_100pct;
          Alcotest.test_case "false positive links" `Quick test_rsbf_false_positive_links;
          qt prop_rsbf_monotone_in_fpr;
        ] );
      ( "orca",
        [
          Alcotest.test_case "one agent per server" `Quick test_orca_plan_agents_one_per_server;
          Alcotest.test_case "setup delay distribution" `Slow test_orca_setup_delay_distribution;
          Alcotest.test_case "relays within server" `Quick test_orca_relays_within_server;
          Alcotest.test_case "host fabric no relays" `Quick test_orca_host_fabric_no_relays;
        ] );
    ]
