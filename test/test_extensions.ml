(* Tests for the extensions beyond the paper's six broadcast schemes:
   NCCL double binary tree, multi-tree PEEL striping, telemetry, and the
   allgather / reduce / allreduce collectives. *)

open Peel_topology
open Peel_workload
open Peel_collective
open Peel_baselines
module Rng = Peel_util.Rng

let fat4 () = Fabric.fat_tree ~k:4 ~hosts_per_tor:2 ~gpus_per_host:4 ()

let one_collective fabric ~scale ~bytes ~seed = Spec.single fabric (Rng.create seed) ~scale ~bytes

(* ------------------------------------------------------------------ *)
(* Double binary tree                                                  *)
(* ------------------------------------------------------------------ *)

let test_dbtree_structure () =
  let f = fat4 () in
  let eps = Fabric.endpoints f in
  let members = List.init 16 (fun i -> eps.(i)) in
  let source = List.hd members in
  let dt = Double_binary_tree.schedule f ~source ~members in
  (* Both trees span all non-source members. *)
  let spans edges =
    let receivers = List.map snd edges |> List.sort_uniq compare in
    receivers = List.sort compare (List.filter (fun m -> m <> source) members)
  in
  Alcotest.(check bool) "tree A spans" true (spans dt.Double_binary_tree.edges_a);
  Alcotest.(check bool) "tree B spans" true (spans dt.Double_binary_tree.edges_b);
  Alcotest.(check bool) "fanout <= 2" true (Double_binary_tree.max_fanout dt <= 2)

let test_dbtree_balanced_send_load () =
  (* The defining property: a non-source rank is interior in at most
     one tree, so its combined send load is at most 2 half-messages
     (vs the plain binary tree's 2 full messages). *)
  let f = fat4 () in
  let eps = Fabric.endpoints f in
  let members = List.init 16 (fun i -> eps.(i)) in
  let source = List.hd members in
  let dt = Double_binary_tree.schedule f ~source ~members in
  List.iter
    (fun m ->
      if m <> source then
        Alcotest.(check bool)
          (Printf.sprintf "member %d load <= 2" m)
          true
          (Double_binary_tree.send_load dt m <= 2))
    members

let test_dbtree_various_sizes () =
  let f = Fabric.fat_tree ~k:4 ~hosts_per_tor:4 ~gpus_per_host:4 () in
  let eps = Fabric.endpoints f in
  List.iter
    (fun n ->
      let members = List.init n (fun i -> eps.(i)) in
      let source = List.hd members in
      let dt = Double_binary_tree.schedule f ~source ~members in
      let receivers =
        List.map snd dt.Double_binary_tree.edges_a |> List.sort_uniq compare
      in
      Alcotest.(check int)
        (Printf.sprintf "n=%d tree A receivers" n)
        (n - 1) (List.length receivers))
    [ 2; 3; 5; 8; 13; 16; 17; 31; 32 ]

(* Property: for any member count, both trees span every non-source
   member, fanout stays <= 2, and no member is interior in both trees
   (send load <= 2 half-message children). *)
let prop_dbtree_invariants =
  QCheck.Test.make ~name:"double binary tree invariants" ~count:60
    QCheck.(int_range 2 100)
    (fun n ->
      let f = Fabric.leaf_spine ~spines:2 ~leaves:13 ~hosts_per_leaf:8 () in
      let eps = Fabric.endpoints f in
      let members = List.init n (fun i -> eps.(i)) in
      let source = List.hd members in
      let dt = Double_binary_tree.schedule f ~source ~members in
      let spans edges =
        List.sort_uniq compare (List.map snd edges)
        = List.sort compare (List.filter (fun m -> m <> source) members)
      in
      spans dt.Double_binary_tree.edges_a
      && spans dt.Double_binary_tree.edges_b
      && Double_binary_tree.max_fanout dt <= 2
      && List.for_all
           (fun m -> m = source || Double_binary_tree.send_load dt m <= 2)
           members)

let test_dbtree_scheme_runs () =
  let f = fat4 () in
  let spec = one_collective f ~scale:16 ~bytes:8e6 ~seed:1 in
  let out = Runner.run f Scheme.Dbtree [ spec ] in
  let cct = List.hd out.Runner.ccts in
  Alcotest.(check bool) "completes" true (cct > 0.0 && Float.is_finite cct);
  (* Double tree halves the interior send bottleneck: never slower than
     the plain binary tree on an idle fabric. *)
  let plain = List.hd (Runner.run f Scheme.Btree [ spec ]).Runner.ccts in
  Alcotest.(check bool) "not slower than plain tree" true (cct <= plain +. 1e-9)

(* ------------------------------------------------------------------ *)
(* Multi-tree PEEL                                                     *)
(* ------------------------------------------------------------------ *)

let test_multitree_salts_diversify () =
  let f = Fabric.fat_tree ~k:8 ~hosts_per_tor:4 () in
  let hosts = Fabric.hosts f in
  let source = hosts.(0) in
  let dests = List.init 32 (fun i -> hosts.(64 + i)) in
  let g = Fabric.graph f in
  let t0 = Option.get (Peel_steiner.Layer_peel.build ~salt:0 g ~source ~dests) in
  let t1 = Option.get (Peel_steiner.Layer_peel.build ~salt:1 g ~source ~dests) in
  (* Different tie-breaks may shift greedy choices slightly; costs must
     stay within a few links of each other, and both trees valid. *)
  let c0 = Peel_steiner.Tree.cost t0 and c1 = Peel_steiner.Tree.cost t1 in
  Alcotest.(check bool) "costs close" true (abs (c0 - c1) <= 4);
  List.iter
    (fun t ->
      match Peel_steiner.Tree.validate g t ~dests with
      | Ok () -> ()
      | Error e -> Alcotest.fail e)
    [ t0; t1 ];
  Alcotest.(check bool) "different links" true
    (List.sort compare (Peel_steiner.Tree.link_ids t0)
    <> List.sort compare (Peel_steiner.Tree.link_ids t1))

let test_multitree_valid_and_complete () =
  let f = fat4 () in
  let spec = one_collective f ~scale:32 ~bytes:8e6 ~seed:3 in
  let out = Runner.run f (Scheme.Peel_multitree 4) [ spec ] in
  Alcotest.(check bool) "completes" true (List.hd out.Runner.ccts > 0.0)

let test_multitree_spreads_load () =
  (* Striping across 4 trees must not use fewer distinct links than one
     tree. *)
  let f = Fabric.fat_tree ~k:8 ~hosts_per_tor:4 () in
  let spec = one_collective f ~scale:64 ~bytes:64e6 ~seed:4 in
  let used out =
    List.length
      (List.filter
         (fun r -> r.Peel_sim.Telemetry.utilization > 0.0)
         (Peel_sim.Telemetry.hottest out.Runner.telemetry
            ~n:(Graph.num_links (Fabric.graph f))))
  in
  let single = Runner.run f Scheme.Peel [ spec ] in
  let multi = Runner.run f (Scheme.Peel_multitree 4) [ spec ] in
  Alcotest.(check bool) "multi-tree touches >= links" true
    (used multi >= used single)

let test_scheme_string_roundtrip () =
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Scheme.to_string s ^ " roundtrips")
        true
        (Scheme.of_string (Scheme.to_string s) = Some s))
    (Scheme.all @ [ Scheme.Dbtree; Scheme.Peel_multitree 4 ])

(* ------------------------------------------------------------------ *)
(* Telemetry                                                           *)
(* ------------------------------------------------------------------ *)

let test_telemetry_utilization_bounds () =
  let f = fat4 () in
  let spec = one_collective f ~scale:16 ~bytes:8e6 ~seed:5 in
  let out = Runner.run f Scheme.Peel [ spec ] in
  let t = out.Runner.telemetry in
  Alcotest.(check bool) "max utilization in (0,1]" true
    (Peel_sim.Telemetry.max_utilization t > 0.0
    && Peel_sim.Telemetry.max_utilization t <= 1.0 +. 1e-9);
  let hottest = Peel_sim.Telemetry.hottest t ~n:5 in
  Alcotest.(check int) "asked for 5" 5 (List.length hottest);
  let rec descending = function
    | a :: (b :: _ as rest) ->
        a.Peel_sim.Telemetry.utilization >= b.Peel_sim.Telemetry.utilization
        && descending rest
    | _ -> true
  in
  Alcotest.(check bool) "descending" true (descending hottest)

let test_telemetry_tiers () =
  let f = fat4 () in
  let spec = one_collective f ~scale:16 ~bytes:8e6 ~seed:6 in
  let out = Runner.run f Scheme.Ring [ spec ] in
  let tiers = Peel_sim.Telemetry.tier_utilization out.Runner.telemetry in
  Alcotest.(check bool) "has gpu->tor tier" true
    (List.mem_assoc "gpu->tor" tiers);
  List.iter
    (fun (_, u) -> Alcotest.(check bool) "util >= 0" true (u >= 0.0))
    tiers

(* ------------------------------------------------------------------ *)
(* Allgather                                                           *)
(* ------------------------------------------------------------------ *)

let test_allgather_both_algos_complete () =
  let f = fat4 () in
  let spec = one_collective f ~scale:16 ~bytes:16e6 ~seed:7 in
  List.iter
    (fun algo ->
      let out = Allgather.run f algo [ spec ] in
      let cct = List.hd out.Runner.ccts in
      Alcotest.(check bool)
        (Allgather.algo_to_string algo ^ " completes")
        true
        (cct > 0.0 && Float.is_finite cct))
    [ Allgather.Ring_exchange; Allgather.Peel_multicast ]

let test_allgather_peel_beats_ring_at_scale () =
  let f = Fabric.fat_tree ~k:4 ~hosts_per_tor:4 ~gpus_per_host:4 () in
  let spec = one_collective f ~scale:64 ~bytes:64e6 ~seed:8 in
  let ring = List.hd (Allgather.run f Allgather.Ring_exchange [ spec ]).Runner.ccts in
  let peel = List.hd (Allgather.run f Allgather.Peel_multicast [ spec ]).Runner.ccts in
  Alcotest.(check bool) "peel allgather faster" true (peel < ring)

(* Two members [a] and [b] in different racks of a leaf-spine, as a
   collective rooted at [a] over the given member list. *)
let repeated_member_fabric () =
  let f = Fabric.leaf_spine ~gpus_per_host:2 ~spines:4 ~leaves:8 ~hosts_per_leaf:2 () in
  let eps = Fabric.endpoints f in
  let a = eps.(0) and b = eps.(9) in
  let spec members =
    { Spec.id = 0; arrival = 0.0; source = a; dests = [ b ]; members; bytes = 8e6 }
  in
  (f, a, b, spec)

let test_allgather_repeated_member () =
  (* A repeated member counts once, as in Reduce and Allreduce; one
     member alone is no allgather. *)
  let f, a, b, spec = repeated_member_fabric () in
  List.iter
    (fun algo ->
      let cct members = List.hd (Allgather.run f algo [ spec members ]).Runner.ccts in
      Alcotest.(check (float 0.0))
        (Allgather.algo_to_string algo ^ ": [a; b; b] as [a; b]")
        (cct [ a; b ]) (cct [ a; b; b ]);
      Alcotest.(check bool)
        (Allgather.algo_to_string algo ^ ": [a; a] rejected")
        true
        (match Allgather.run f algo [ spec [ a; a ] ] with
        | _ -> false
        | exception Invalid_argument _ -> true))
    [ Allgather.Ring_exchange; Allgather.Peel_multicast ]

let test_allgather_ring_closed_form_small () =
  (* 2 members on the same rack: each shard makes 1 hop of bytes/2 over
     gpu->tor->gpu; CCT ~ serialization of two shards on disjoint NICs:
     both complete in about shard/bw + 2 hops of latency. *)
  let f = fat4 () in
  let eps = Fabric.endpoints f in
  let members = [ eps.(0); eps.(1) ] in
  let spec =
    {
      Spec.id = 0;
      arrival = 0.0;
      source = eps.(0);
      dests = [ eps.(1) ];
      members;
      bytes = 2e6;
    }
  in
  let out = Allgather.run f Allgather.Ring_exchange [ spec ] in
  let cct = List.hd out.Runner.ccts in
  (* shard = 1 MB; sibling GPUs share a server: NVLink via NVSwitch at
     900 GB/s, two hops. *)
  let expected = 2. *. (1e6 /. 900e9) +. 2e-7 in
  Alcotest.(check bool) "close to closed form" true
    (Float.abs (cct -. expected) < expected *. 0.5)

(* ------------------------------------------------------------------ *)
(* Reduce                                                              *)
(* ------------------------------------------------------------------ *)

let test_reduce_both_algos_complete () =
  let f = fat4 () in
  let spec = one_collective f ~scale:16 ~bytes:16e6 ~seed:9 in
  List.iter
    (fun algo ->
      let out = Reduce.run f algo [ spec ] in
      let cct = List.hd out.Runner.ccts in
      Alcotest.(check bool)
        (Reduce.algo_to_string algo ^ " completes")
        true
        (cct > 0.0 && Float.is_finite cct))
    [ Reduce.Ring_pass; Reduce.Btree_reduce ]

let test_reduce_tree_beats_ring_at_scale () =
  (* The accumulating ring is O(N) serial hops; the tree is O(log N).
     With one GPU per server every ring hop crosses the fabric, so the
     asymptotics dominate.  (With 8 GPUs/server most ring hops ride
     NVLink and the ring wins — which is exactly why NCCL uses rings.) *)
  let f = Fabric.fat_tree ~k:8 ~hosts_per_tor:4 ~gpus_per_host:1 () in
  let spec = one_collective f ~scale:64 ~bytes:32e6 ~seed:10 in
  let ring = List.hd (Reduce.run f Reduce.Ring_pass [ spec ]).Runner.ccts in
  let tree = List.hd (Reduce.run f Reduce.Btree_reduce [ spec ]).Runner.ccts in
  Alcotest.(check bool) "tree reduce faster" true (tree < ring)

let test_reduce_ring_wins_with_nvlink () =
  (* The complementary fact: dense NVLink placements favour the ring. *)
  let f = Fabric.fat_tree ~k:4 ~hosts_per_tor:4 ~gpus_per_host:4 () in
  let spec = one_collective f ~scale:64 ~bytes:32e6 ~seed:10 in
  let ring = List.hd (Reduce.run f Reduce.Ring_pass [ spec ]).Runner.ccts in
  let tree = List.hd (Reduce.run f Reduce.Btree_reduce [ spec ]).Runner.ccts in
  Alcotest.(check bool) "ring faster with NVLink" true (ring < tree)

let test_reduce_deterministic () =
  let f = fat4 () in
  let spec = one_collective f ~scale:16 ~bytes:8e6 ~seed:11 in
  let a = List.hd (Reduce.run f Reduce.Btree_reduce [ spec ]).Runner.ccts in
  let b = List.hd (Reduce.run f Reduce.Btree_reduce [ spec ]).Runner.ccts in
  Alcotest.(check (float 0.0)) "reproducible" a b

(* ------------------------------------------------------------------ *)
(* Allreduce                                                           *)
(* ------------------------------------------------------------------ *)

let test_allreduce_both_algos_complete () =
  let f = fat4 () in
  let spec = one_collective f ~scale:16 ~bytes:16e6 ~seed:12 in
  List.iter
    (fun algo ->
      let out = Allreduce.run f algo [ spec ] in
      let cct = List.hd out.Runner.ccts in
      Alcotest.(check bool)
        (Allreduce.algo_to_string algo ^ " completes")
        true
        (cct > 0.0 && Float.is_finite cct))
    [ Allreduce.Ring_rs_ag; Allreduce.Reduce_then_peel ]

let test_allreduce_slower_than_its_parts () =
  (* Sanity: allreduce cannot beat a bare broadcast of the same bytes. *)
  let f = fat4 () in
  let spec = one_collective f ~scale:32 ~bytes:32e6 ~seed:13 in
  let ar = List.hd (Allreduce.run f Allreduce.Reduce_then_peel [ spec ]).Runner.ccts in
  let bc = List.hd (Runner.run f Scheme.Peel [ spec ]).Runner.ccts in
  Alcotest.(check bool) "allreduce >= broadcast" true (ar >= bc -. 1e-9)

let test_allreduce_peel_competitive_at_scale () =
  (* With one GPU per server (every hop on the fabric) the pipelined
     reduce+multicast sits within ~2x of the bandwidth-optimal ring. *)
  let f = Fabric.fat_tree ~k:8 ~hosts_per_tor:4 ~gpus_per_host:1 () in
  let spec = one_collective f ~scale:64 ~bytes:64e6 ~seed:14 in
  let ring = List.hd (Allreduce.run f Allreduce.Ring_rs_ag [ spec ]).Runner.ccts in
  let peel = List.hd (Allreduce.run f Allreduce.Reduce_then_peel [ spec ]).Runner.ccts in
  Alcotest.(check bool) "within 2.5x of ring" true (peel < 2.5 *. ring)

let test_allreduce_repeated_member () =
  (* The multicast phase counts the deduplicated members too: with a
     repeated member it waited for a delivery that never comes. *)
  let f, a, b, spec = repeated_member_fabric () in
  List.iter
    (fun algo ->
      let cct members = List.hd (Allreduce.run f algo [ spec members ]).Runner.ccts in
      Alcotest.(check (float 0.0))
        (Allreduce.algo_to_string algo ^ ": [a; b; b] as [a; b]")
        (cct [ a; b ]) (cct [ a; b; b ]))
    [ Allreduce.Ring_rs_ag; Allreduce.Reduce_then_peel ]

(* ------------------------------------------------------------------ *)
(* Rail-optimized fabric end to end                                    *)
(* ------------------------------------------------------------------ *)

let rail_fabric () = Fabric.rail ~rails:4 ~groups:4 ~servers_per_group:4 ~spines:4 ()

let test_rail_plan_and_dataplane () =
  let f = rail_fabric () in
  let rng = Rng.create 61 in
  let members = Spec.place f rng ~scale:32 () in
  let source = List.hd members in
  let dests = List.tl members in
  let plan = Peel.Plan.build f ~source ~dests in
  (match Peel.Plan.validate f plan with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  match Peel.Dataplane.verify f plan with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_rail_broadcast_all_schemes () =
  let f = rail_fabric () in
  let spec = one_collective f ~scale:32 ~bytes:8e6 ~seed:62 in
  List.iter
    (fun scheme ->
      (* Orca's symmetric fallback and relays also must work on rails. *)
      let out = Runner.run f scheme [ spec ] in
      let cct = List.hd out.Runner.ccts in
      Alcotest.(check bool)
        (Scheme.to_string scheme ^ " on rails")
        true
        (cct > 0.0 && Float.is_finite cct))
    Scheme.all

let test_rail_multicast_beats_ring () =
  let f = rail_fabric () in
  let spec = one_collective f ~scale:64 ~bytes:64e6 ~seed:63 in
  let peel = List.hd (Runner.run f Scheme.Peel [ spec ]).Runner.ccts in
  let ring = List.hd (Runner.run f Scheme.Ring [ spec ]).Runner.ccts in
  Alcotest.(check bool) "peel < ring on rails" true (peel < ring)

let test_rail_failure_injection () =
  let f = rail_fabric () in
  let rng = Rng.create 64 in
  let failed = Fabric.fail_random f ~rng ~tier:`All ~fraction:0.1 () in
  Alcotest.(check bool) "failed some" true (List.length failed > 0);
  let spec = one_collective f ~scale:32 ~bytes:8e6 ~seed:65 in
  let cct = List.hd (Runner.run f Scheme.Peel [ spec ]).Runner.ccts in
  Alcotest.(check bool) "peel routes around" true (cct > 0.0);
  Graph.restore_all (Fabric.graph f)

let () =
  Alcotest.run "peel_extensions"
    [
      ( "double_binary_tree",
        [
          Alcotest.test_case "structure" `Quick test_dbtree_structure;
          Alcotest.test_case "balanced send load" `Quick test_dbtree_balanced_send_load;
          Alcotest.test_case "various sizes" `Quick test_dbtree_various_sizes;
          QCheck_alcotest.to_alcotest prop_dbtree_invariants;
          Alcotest.test_case "scheme runs" `Quick test_dbtree_scheme_runs;
        ] );
      ( "multitree",
        [
          Alcotest.test_case "salts diversify" `Quick test_multitree_salts_diversify;
          Alcotest.test_case "valid and complete" `Quick test_multitree_valid_and_complete;
          Alcotest.test_case "spreads load" `Quick test_multitree_spreads_load;
          Alcotest.test_case "scheme strings" `Quick test_scheme_string_roundtrip;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "utilization bounds" `Quick test_telemetry_utilization_bounds;
          Alcotest.test_case "tiers" `Quick test_telemetry_tiers;
        ] );
      ( "allgather",
        [
          Alcotest.test_case "both complete" `Quick test_allgather_both_algos_complete;
          Alcotest.test_case "peel beats ring at scale" `Quick
            test_allgather_peel_beats_ring_at_scale;
          Alcotest.test_case "closed form small" `Quick test_allgather_ring_closed_form_small;
          Alcotest.test_case "repeated member" `Quick test_allgather_repeated_member;
        ] );
      ( "reduce",
        [
          Alcotest.test_case "both complete" `Quick test_reduce_both_algos_complete;
          Alcotest.test_case "tree beats ring at scale" `Quick
            test_reduce_tree_beats_ring_at_scale;
          Alcotest.test_case "ring wins with NVLink" `Quick
            test_reduce_ring_wins_with_nvlink;
          Alcotest.test_case "deterministic" `Quick test_reduce_deterministic;
        ] );
      ( "rail",
        [
          Alcotest.test_case "plan + dataplane" `Quick test_rail_plan_and_dataplane;
          Alcotest.test_case "all schemes run" `Quick test_rail_broadcast_all_schemes;
          Alcotest.test_case "multicast beats ring" `Quick test_rail_multicast_beats_ring;
          Alcotest.test_case "failure injection" `Quick test_rail_failure_injection;
        ] );
      ( "allreduce",
        [
          Alcotest.test_case "both complete" `Quick test_allreduce_both_algos_complete;
          Alcotest.test_case "not faster than broadcast" `Quick
            test_allreduce_slower_than_its_parts;
          Alcotest.test_case "competitive at scale" `Quick
            test_allreduce_peel_competitive_at_scale;
          Alcotest.test_case "repeated member" `Quick test_allreduce_repeated_member;
        ] );
    ]
