(* Tests for the topology zoo: generator determinism and invariants,
   the generalized layer-peeling planner's bit-identity with the Clos
   specialization, the exact-Steiner oracle differential, the TOPO00x
   diagnostic battery (each seeded corruption must be caught by its
   code), and end-to-end runs through plan -> compile -> simulate. *)

open Peel_topology
open Peel_steiner
module Rng = Peel_util.Rng

let build cls ~seed =
  match cls with
  | Zoo.Abfattree -> Zoo.abfattree ~hosts_per_tor:2 ~k:4 ()
  | Zoo.Vl2 -> Zoo.vl2 ~da:4 ~di:4 ()
  | Zoo.Jellyfish -> Zoo.jellyfish ~switches:12 ~net_degree:3 ~seed ()
  | Zoo.Xpander -> Zoo.xpander ~net_degree:3 ~lift:4 ~seed ()

let edge_set g =
  List.sort compare
    (Array.to_list (Graph.links g)
    |> List.map (fun (l : Graph.link) -> (l.Graph.src, l.Graph.dst)))

let group_on fabric ~seed ~size =
  let hosts = Fabric.hosts fabric in
  let n = Array.length hosts in
  let rng = Rng.create seed in
  let picks =
    Rng.sample_without_replacement rng n (min n size)
    |> List.map (fun i -> hosts.(i))
  in
  (List.hd picks, List.tl picks)

(* ------------------------------------------------------------------ *)
(* Generators: determinism, invariants, rejection                      *)
(* ------------------------------------------------------------------ *)

let prop_same_seed_same_fabric =
  QCheck.Test.make ~name:"same seed => identical fabric" ~count:30
    QCheck.(int_range 0 5000)
    (fun seed ->
      List.for_all
        (fun cls ->
          let a = build cls ~seed and b = build cls ~seed in
          edge_set a.Zoo.graph = edge_set b.Zoo.graph
          && a.Zoo.tor_of_host = b.Zoo.tor_of_host
          && a.Zoo.layer_of = b.Zoo.layer_of)
        Zoo.all_classes)

let prop_generators_validate =
  QCheck.Test.make ~name:"every generated fabric passes its own battery"
    ~count:25
    QCheck.(int_range 0 5000)
    (fun seed ->
      List.for_all
        (fun cls ->
          let z = build cls ~seed in
          Zoo.layering_violations z = []
          && Zoo.invariant_violations z = [])
        Zoo.all_classes)

let test_degree_invariants () =
  let z = Zoo.jellyfish ~switches:16 ~net_degree:4 ~seed:3 () in
  let g = z.Zoo.graph in
  Array.iter
    (fun sw ->
      (* net_degree switch ports + 1 host. *)
      Alcotest.(check int) "jellyfish degree" 5 (Graph.degree g sw))
    z.Zoo.tors;
  let x = Zoo.xpander ~net_degree:3 ~lift:5 ~seed:3 () in
  Alcotest.(check int) "xpander switches" 20 (Array.length x.Zoo.tors);
  Array.iter
    (fun sw -> Alcotest.(check int) "xpander degree" 4 (Graph.degree x.Zoo.graph sw))
    x.Zoo.tors;
  let v = Zoo.vl2 ~da:6 ~di:4 () in
  Alcotest.(check int) "vl2 tors" 6 (Array.length v.Zoo.tors);
  Alcotest.(check int) "vl2 layers" 4 (Zoo.num_layers v)

let test_rejection () =
  let raises f =
    match f () with
    | (_ : Zoo.t) -> Alcotest.fail "expected Invalid_argument"
    | exception Invalid_argument _ -> ()
  in
  raises (fun () -> Zoo.abfattree ~k:5 ());
  raises (fun () -> Zoo.abfattree ~k:2 ());
  raises (fun () -> Zoo.vl2 ~da:3 ~di:4 ());
  (* switches * net_degree odd: no regular graph exists. *)
  raises (fun () -> Zoo.jellyfish ~switches:5 ~net_degree:3 ~seed:1 ());
  raises (fun () -> Zoo.jellyfish ~switches:4 ~net_degree:4 ~seed:1 ());
  raises (fun () -> Zoo.xpander ~net_degree:1 ~lift:4 ~seed:1 ());
  Alcotest.(check int) "jellyfish accepted" 12
    (Array.length (Zoo.jellyfish ~switches:12 ~net_degree:3 ~seed:1 ()).Zoo.tors)

(* ------------------------------------------------------------------ *)
(* Fabric introspection                                                *)
(* ------------------------------------------------------------------ *)

let test_introspection () =
  let ft = Fabric.fat_tree ~hosts_per_tor:2 ~gpus_per_host:0 ~k:4 () in
  Alcotest.(check int) "fat-tree layers" 4 (Fabric.num_layers ft);
  Alcotest.(check int) "fat-tree endpoints" 16 (Fabric.num_endpoints ft);
  Alcotest.(check int) "tors at layer 1" 8
    (Array.length (Fabric.switches_at_layer ft 1));
  Alcotest.(check (list int)) "tors are layer 1"
    (List.sort compare (Array.to_list (Fabric.tors ft)))
    (List.sort compare (Array.to_list (Fabric.switches_at_layer ft 1)));
  let z = build Zoo.Vl2 ~seed:0 in
  let f = Fabric.of_zoo z in
  Alcotest.(check int) "vl2 layers" 4 (Fabric.num_layers f);
  Array.iter
    (fun t -> Alcotest.(check int) "zoo tor layer" 1 (Zoo.layer_of z t))
    (Fabric.tors f);
  Alcotest.(check int) "zoo endpoints" (Array.length z.Zoo.hosts)
    (Fabric.num_endpoints f)

(* ------------------------------------------------------------------ *)
(* peel_general: bit-identity on the Clos, custom layerings           *)
(* ------------------------------------------------------------------ *)

let prop_peel_general_identity_on_clos =
  QCheck.Test.make
    ~name:"peel_general bit-identical to build on (failed) Clos" ~count:40
    QCheck.(pair (int_range 0 2000) (int_range 0 20))
    (fun (seed, fail_pct) ->
      let fabric =
        if seed mod 2 = 0 then
          Fabric.fat_tree ~hosts_per_tor:2 ~gpus_per_host:0 ~k:4 ()
        else Fabric.leaf_spine ~spines:3 ~leaves:6 ~hosts_per_leaf:2 ()
      in
      let g = Fabric.graph fabric in
      let rng = Rng.create seed in
      if fail_pct > 0 then
        ignore
          (Fabric.fail_random fabric ~rng ~tier:`All
             ~fraction:(float_of_int fail_pct /. 100.0)
             ());
      let source, dests = group_on fabric ~seed:(seed + 1) ~size:7 in
      let a = Layer_peel.build ~salt:seed g ~source ~dests in
      let b = Layer_peel.peel_general ~salt:seed g ~source ~dests in
      match (a, b) with
      | None, None -> true
      | Some ta, Some tb -> Tree.edges ta = Tree.edges tb
      | _ -> false)

let prop_peel_general_monotone_relabel =
  QCheck.Test.make
    ~name:"monotone relabeling of BFS layers yields the same tree" ~count:30
    QCheck.(int_range 0 2000)
    (fun seed ->
      let z = build Zoo.Jellyfish ~seed in
      let g = z.Zoo.graph in
      let source, dests = group_on (Fabric.of_zoo z) ~seed ~size:6 in
      let dist = Graph.bfs_dist g source in
      let layers =
        Array.map
          (fun d -> if d = Graph.unreachable then d else (3 * d) + 1)
          dist
      in
      layers.(source) <- 0;
      let a = Layer_peel.peel_general ~salt:seed g ~source ~dests in
      let b = Layer_peel.peel_general ~salt:seed ~layers g ~source ~dests in
      match (a, b) with
      | Some ta, Some tb -> Tree.edges ta = Tree.edges tb
      | _ -> false)

let test_peel_general_rejects_bad_layering () =
  let z = build Zoo.Jellyfish ~seed:5 in
  let g = z.Zoo.graph in
  let source, dests = group_on (Fabric.of_zoo z) ~seed:5 ~size:4 in
  let raises layers =
    match Layer_peel.peel_general ~layers g ~source ~dests with
    | (_ : Tree.t option) -> Alcotest.fail "expected Invalid_argument"
    | exception Invalid_argument _ -> ()
  in
  (* Wrong length. *)
  raises (Array.make 3 0);
  (* Source not on layer 0. *)
  let l = Graph.bfs_dist g source in
  let l1 = Array.map (fun d -> d + 1) l in
  raises l1;
  (* A second node on layer 0. *)
  let l2 = Array.copy l in
  l2.(List.hd dests) <- 0;
  raises l2;
  (* Negative label. *)
  let l3 = Array.copy l in
  l3.(List.hd dests) <- -1;
  raises l3

(* ------------------------------------------------------------------ *)
(* Oracle differential                                                 *)
(* ------------------------------------------------------------------ *)

let prop_oracle_matches_direct_dp =
  QCheck.Test.make
    ~name:"pendant-collapsed oracle = direct Dreyfus-Wagner" ~count:30
    QCheck.(pair (int_range 0 2000) (int_range 2 5))
    (fun (seed, size) ->
      List.for_all
        (fun cls ->
          let z = build cls ~seed in
          let g = z.Zoo.graph in
          let source, dests = group_on (Fabric.of_zoo z) ~seed ~size in
          Exact.oracle g ~source ~dests
          = Exact.steiner_cost g ~terminals:(source :: dests))
        Zoo.all_classes)

let prop_greedy_never_beats_oracle =
  QCheck.Test.make ~name:"greedy cost >= oracle optimum" ~count:40
    QCheck.(pair (int_range 0 3000) (int_range 3 8))
    (fun (seed, size) ->
      List.for_all
        (fun cls ->
          let z = build cls ~seed in
          let g = z.Zoo.graph in
          let source, dests = group_on (Fabric.of_zoo z) ~seed ~size in
          match
            (Layer_peel.peel_general g ~source ~dests, Exact.oracle g ~source ~dests)
          with
          | Some tree, Some opt -> Tree.cost tree >= opt
          | _ -> true)
        Zoo.all_classes)

let test_peel_exact_on_symmetric_clos () =
  (* Lemma 2.1 via the oracle: ratio 1.0 on the healthy fat-tree. *)
  let fabric = Fabric.fat_tree ~hosts_per_tor:2 ~gpus_per_host:0 ~k:4 () in
  let g = Fabric.graph fabric in
  for seed = 0 to 9 do
    let source, dests = group_on fabric ~seed ~size:8 in
    match
      (Layer_peel.peel_general g ~source ~dests, Exact.oracle g ~source ~dests)
    with
    | Some tree, Some opt -> Alcotest.(check int) "exact on Clos" opt (Tree.cost tree)
    | _ -> Alcotest.fail "tree or oracle missing on the healthy Clos"
  done

(* ------------------------------------------------------------------ *)
(* TOPO00x: every seeded corruption is caught by its code              *)
(* ------------------------------------------------------------------ *)

let codes ds = List.map (fun d -> d.Peel_check.Diagnostic.code) ds

let has_error ds code =
  List.mem code (codes (Peel_check.Diagnostic.errors ds))

(* The zoo battery over one six-member group on [z]. *)
let battery z ~seed =
  let source, dests = group_on (Fabric.of_zoo z) ~seed ~size:6 in
  Peel_check.Check_topology.check_scenario z ~source ~dests

let test_topo001_layering_corruption () =
  List.iter
    (fun cls ->
      let z = build cls ~seed:11 in
      Alcotest.(check bool) "clean" false (has_error (battery z ~seed:11) "TOPO001");
      let z, _ = Peel_check.Check_topology.corrupt `Topo001 z in
      Alcotest.(check bool) "caught" true (has_error (battery z ~seed:11) "TOPO001"))
    Zoo.all_classes

let test_topo002_invariant_corruption () =
  List.iter
    (fun cls ->
      let z = build cls ~seed:11 in
      let z', _ = Peel_check.Check_topology.corrupt `Topo002 z in
      Alcotest.(check bool) "clean" false (has_error (battery z ~seed:11) "TOPO002");
      Alcotest.(check bool) "caught" true (has_error (battery z' ~seed:11) "TOPO002"))
    Zoo.all_classes

let test_topo003_tree_corruption () =
  let z = build Zoo.Jellyfish ~seed:7 in
  let source, dests = group_on (Fabric.of_zoo z) ~seed:7 ~size:6 in
  let clean = Peel_check.Check_topology.check_scenario z ~source ~dests in
  Alcotest.(check (list string)) "clean tree" [] (codes (Peel_check.Diagnostic.errors clean));
  (* The seeded tree gains a node through a non-descending up link:
     valid by every TREE check, caught only by TOPO003. *)
  let _, seeded = Peel_check.Check_topology.corrupt `Topo003 z in
  Alcotest.(check (list string)) "caught by TOPO003 alone" [ "TOPO003" ]
    (codes (Peel_check.Diagnostic.errors (seeded ~source ~dests)))

let test_topo004_ratio_bounds () =
  let module CT = Peel_check.Check_topology in
  Alcotest.(check (list string)) "in bounds" []
    (codes (CT.check_ratio ~cost:6 ~opt:5 ~far:3 ~ndests:4));
  Alcotest.(check bool) "beats oracle caught" true
    (has_error (CT.check_ratio ~cost:4 ~opt:5 ~far:3 ~ndests:4) "TOPO004");
  Alcotest.(check bool) "envelope breach caught" true
    (has_error (CT.check_ratio ~cost:20 ~opt:2 ~far:3 ~ndests:4) "TOPO004")

let test_check_scenario_runs_topo_battery () =
  let z = build Zoo.Xpander ~seed:13 in
  let f = Fabric.of_zoo z in
  let source, dests = group_on f ~seed:13 ~size:6 in
  let ds = Peel_check.check_scenario f ~source ~dests in
  Alcotest.(check (list string)) "no errors on a clean zoo scenario" []
    (codes (Peel_check.Diagnostic.errors ds));
  (* Corrupt the layering: the same battery must now fail with TOPO001. *)
  let z, _ = Peel_check.Check_topology.corrupt `Topo001 z in
  let ds = Peel_check.check_scenario (Fabric.of_zoo z) ~source ~dests in
  Alcotest.(check bool) "TOPO001 surfaces through check_scenario" true
    (has_error ds "TOPO001")

(* ------------------------------------------------------------------ *)
(* Reconfiguration schedules                                           *)
(* ------------------------------------------------------------------ *)

let test_reconfig_schedule () =
  let z = build Zoo.Jellyfish ~seed:23 in
  let g = z.Zoo.graph in
  let epochs =
    Zoo.Reconfig.schedule z ~rng:(Rng.create 42) ~epochs:4 ~period:0.5
      ~fraction:0.2
  in
  Alcotest.(check int) "epoch count" 4 (List.length epochs);
  (* The schedule never touches the graph itself. *)
  Array.iter
    (fun id -> Alcotest.(check bool) "links all up" true (Graph.link_up g id))
    (Zoo.inter_switch_duplex_links z);
  let dark = int_of_float (Float.round (0.2 *. float_of_int (Array.length (Zoo.inter_switch_duplex_links z)))) in
  let module S = Set.Make (Int) in
  let hosts = Array.to_list z.Zoo.hosts in
  let cur = ref S.empty in
  List.iteri
    (fun i (e : Zoo.Reconfig.epoch) ->
      Alcotest.(check (float 1e-9)) "epoch time" (0.5 *. float_of_int i)
        e.Zoo.Reconfig.at;
      (* Deltas are disjoint and keep the dark set at the target size. *)
      List.iter
        (fun id -> Alcotest.(check bool) "fail is fresh" false (S.mem id !cur))
        e.Zoo.Reconfig.fail;
      List.iter
        (fun id -> Alcotest.(check bool) "recover was dark" true (S.mem id !cur))
        e.Zoo.Reconfig.recover;
      cur := S.diff (S.union !cur (S.of_list e.Zoo.Reconfig.fail))
               (S.of_list e.Zoo.Reconfig.recover);
      Alcotest.(check int) "dark set size" dark (S.cardinal !cur);
      (* Every epoch's dark set keeps the hosts connected. *)
      S.iter (fun id -> Graph.fail_link g id) !cur;
      Alcotest.(check bool) "connected under epoch" true (Graph.connected g hosts);
      S.iter (fun id -> Graph.recover_link g id) !cur)
    epochs

(* ------------------------------------------------------------------ *)
(* End to end: plan -> compile -> simulate on every class              *)
(* ------------------------------------------------------------------ *)

let test_end_to_end_all_classes () =
  List.iter
    (fun cls ->
      let z = build cls ~seed:29 in
      let f = Fabric.of_zoo z in
      let source, dests = group_on f ~seed:29 ~size:6 in
      (* Plan and rule compile. *)
      let plan = Peel.Plan.build f ~source ~dests in
      Alcotest.(check bool) "plan has packets" true
        (Peel.Plan.num_packets plan > 0);
      let t = Peel_compile.Compile.compile f [ (0, plan) ] in
      let cds = Peel_compile.Check_compile.check f t in
      Alcotest.(check (list string))
        (Zoo.cls_to_string cls ^ " compile certifies")
        []
        (codes (Peel_check.Diagnostic.errors cds));
      (* Simulate a small broadcast workload to completion. *)
      let cs =
        Peel_workload.Spec.poisson_broadcasts f (Rng.create 29) ~n:3
          ~scale:(min 6 (Fabric.num_endpoints f))
          ~bytes:1e6 ~load:0.3 ()
      in
      let out = Peel_collective.Runner.run f Peel_collective.Scheme.Peel cs in
      Alcotest.(check int)
        (Zoo.cls_to_string cls ^ " all collectives complete")
        3
        (List.length out.Peel_collective.Runner.ccts);
      List.iter
        (fun cct ->
          Alcotest.(check bool) "positive finite CCT" true
            (Float.is_finite cct && cct > 0.0))
        out.Peel_collective.Runner.ccts)
    Zoo.all_classes

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "peel_zoo"
    [
      ( "generators",
        [
          qt prop_same_seed_same_fabric;
          qt prop_generators_validate;
          Alcotest.test_case "degree/size invariants" `Quick test_degree_invariants;
          Alcotest.test_case "bad parameters rejected" `Quick test_rejection;
          Alcotest.test_case "fabric introspection" `Quick test_introspection;
        ] );
      ( "peel_general",
        [
          qt prop_peel_general_identity_on_clos;
          qt prop_peel_general_monotone_relabel;
          Alcotest.test_case "bad layerings rejected" `Quick
            test_peel_general_rejects_bad_layering;
        ] );
      ( "oracle",
        [
          qt prop_oracle_matches_direct_dp;
          qt prop_greedy_never_beats_oracle;
          Alcotest.test_case "exact on symmetric Clos" `Quick
            test_peel_exact_on_symmetric_clos;
        ] );
      ( "topo_codes",
        [
          Alcotest.test_case "TOPO001 layering" `Quick test_topo001_layering_corruption;
          Alcotest.test_case "TOPO002 invariants" `Quick test_topo002_invariant_corruption;
          Alcotest.test_case "TOPO003 tree monotonicity" `Quick test_topo003_tree_corruption;
          Alcotest.test_case "TOPO004 ratio bounds" `Quick test_topo004_ratio_bounds;
          Alcotest.test_case "check_scenario zoo battery" `Quick
            test_check_scenario_runs_topo_battery;
        ] );
      ( "reconfig",
        [ Alcotest.test_case "delta schedule" `Quick test_reconfig_schedule ] );
      ( "end_to_end",
        [ Alcotest.test_case "plan/compile/simulate" `Quick test_end_to_end_all_classes ] );
    ]
