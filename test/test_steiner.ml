(* Tests for peel_steiner: tree structure invariants, symmetric-optimal
   construction (Lemma 2.1), the layer-peeling greedy (§2.3) including
   its approximation bound (Lemma 2.3 / Theorem 2.5), and the exact
   Dreyfus-Wagner ground truth. *)

open Peel_topology
open Peel_steiner
module Rng = Peel_util.Rng

(* A uniform element of a non-empty array. *)
let rng_pick rng a = a.(Rng.int rng (Array.length a))

(* ------------------------------------------------------------------ *)
(* Helpers                                                             *)
(* ------------------------------------------------------------------ *)

let line_graph n =
  (* 0 - 1 - 2 - ... - (n-1) *)
  let b = Graph.Builder.create () in
  let nodes = Array.init n (fun i -> Graph.Builder.add_node b Graph.Host ~pod:0 ~idx:i) in
  for i = 0 to n - 2 do
    ignore (Graph.Builder.add_duplex b ~bandwidth:1e9 nodes.(i) nodes.(i + 1))
  done;
  (Graph.Builder.finish b, nodes)

let expect_tree = function
  | Some t -> t
  | None -> Alcotest.fail "expected a tree"

let check_valid g tree ~dests =
  match Tree.validate g tree ~dests with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("tree invalid: " ^ e)

(* ------------------------------------------------------------------ *)
(* Tree                                                                *)
(* ------------------------------------------------------------------ *)

let test_tree_of_parents_basic () =
  let g, nodes = line_graph 3 in
  let lid01 = Option.get (Graph.link_between g nodes.(0) nodes.(1)) in
  let lid12 = Option.get (Graph.link_between g nodes.(1) nodes.(2)) in
  let t =
    Tree.of_parents g ~root:nodes.(0)
      ~parents:[ (nodes.(1), (nodes.(0), lid01)); (nodes.(2), (nodes.(1), lid12)) ]
  in
  Alcotest.(check int) "cost" 2 (Tree.cost t);
  Alcotest.(check int) "root" nodes.(0) (Tree.root t);
  Alcotest.(check (list int)) "members" [ 0; 1; 2 ] (Tree.members t);
  Alcotest.(check int) "depth of 2" 2 (Tree.depth t nodes.(2));
  Alcotest.(check int) "max depth" 2 (Tree.max_depth t);
  Alcotest.(check (list int)) "path" [ 0; 1; 2 ] (Tree.path_from_root t nodes.(2));
  Alcotest.(check bool) "mem" true (Tree.mem t nodes.(1));
  check_valid g t ~dests:[ nodes.(2) ]

let test_tree_children () =
  let g, nodes = line_graph 3 in
  let lid01 = Option.get (Graph.link_between g nodes.(0) nodes.(1)) in
  let t = Tree.of_parents g ~root:nodes.(0) ~parents:[ (nodes.(1), (nodes.(0), lid01)) ] in
  (match Tree.children t nodes.(0) with
  | [ (c, l) ] ->
      Alcotest.(check int) "child" nodes.(1) c;
      Alcotest.(check int) "link" lid01 l
  | _ -> Alcotest.fail "expected one child");
  Alcotest.(check (list (pair int int))) "leaf has no children" []
    (Tree.children t nodes.(1))

let test_tree_rejects_wrong_link () =
  let g, nodes = line_graph 3 in
  let lid01 = Option.get (Graph.link_between g nodes.(0) nodes.(1)) in
  (* Use the 0->1 link to claim 2's parent is 1: endpoints don't match. *)
  Alcotest.(check bool) "raises" true
    (try
       ignore (Tree.of_parents g ~root:nodes.(0) ~parents:[ (nodes.(2), (nodes.(1), lid01)) ]);
       false
     with Invalid_argument _ -> true)

let test_tree_rejects_orphan_chain () =
  let g, nodes = line_graph 4 in
  let lid23 = Option.get (Graph.link_between g nodes.(2) nodes.(3)) in
  (* Node 3 hangs off node 2, but node 2 has no chain to the root. *)
  Alcotest.(check bool) "raises" true
    (try
       ignore (Tree.of_parents g ~root:nodes.(0) ~parents:[ (nodes.(3), (nodes.(2), lid23)) ]);
       false
     with Invalid_argument _ -> true)

let test_tree_rejects_duplicate () =
  let g, nodes = line_graph 3 in
  let lid01 = Option.get (Graph.link_between g nodes.(0) nodes.(1)) in
  Alcotest.(check bool) "raises" true
    (try
       ignore
         (Tree.of_parents g ~root:nodes.(0)
            ~parents:[ (nodes.(1), (nodes.(0), lid01)); (nodes.(1), (nodes.(0), lid01)) ]);
       false
     with Invalid_argument _ -> true)

let test_tree_rejects_root_parent () =
  let g, nodes = line_graph 3 in
  let lid10 = Option.get (Graph.link_between g nodes.(1) nodes.(0)) in
  Alcotest.check_raises "root bound"
    (Invalid_argument "Tree.of_parents: root cannot have a parent") (fun () ->
      ignore (Tree.of_parents g ~root:nodes.(0) ~parents:[ (nodes.(0), (nodes.(1), lid10)) ]))

let test_tree_rejects_cycle () =
  let g, nodes = line_graph 4 in
  let lid12 = Option.get (Graph.link_between g nodes.(1) nodes.(2)) in
  let lid21 = Option.get (Graph.link_between g nodes.(2) nodes.(1)) in
  (* 1 and 2 parent each other; neither chain reaches the root. *)
  Alcotest.check_raises "cycle"
    (Invalid_argument "Tree.of_parents: parent chain does not reach the root")
    (fun () ->
      ignore
        (Tree.of_parents g ~root:nodes.(0)
           ~parents:[ (nodes.(2), (nodes.(1), lid12)); (nodes.(1), (nodes.(2), lid21)) ]))

(* A random rooted tree on a fresh graph, with its bindings shuffled.
   Node ids are permuted so chains do not run in id order, some pairs
   get a parallel cable, and only the first [m] of the [n] generated
   nodes join the tree, so the rest are non-members. *)
let random_bindings rng =
  let n = 1 + Rng.int rng 40 in
  let m = 1 + Rng.int rng n in
  let perm = Array.init n Fun.id in
  Rng.shuffle rng perm;
  let b = Graph.Builder.create () in
  for i = 0 to n - 1 do
    ignore (Graph.Builder.add_node b Graph.Host ~pod:0 ~idx:i)
  done;
  let bindings =
    List.init (n - 1) (fun i ->
        let v = i + 1 in
        let a = perm.(Rng.int rng v) and c = perm.(v) in
        if Rng.int rng 4 = 0 then ignore (Graph.Builder.add_duplex b ~bandwidth:1.0 a c);
        let lid =
          if Rng.bool rng then Graph.Builder.add_duplex b ~bandwidth:1.0 a c
          else Graph.peer_link (Graph.Builder.add_duplex b ~bandwidth:1.0 c a)
        in
        (v, (c, (a, lid))))
    |> List.filter_map (fun (v, bnd) -> if v < m then Some bnd else None)
    |> Array.of_list
  in
  Rng.shuffle rng bindings;
  (Graph.Builder.finish b, perm.(0), Array.to_list bindings, n)

(* Property: [of_parents] agrees with a list model of the same
   bindings on every accessor, for members and non-members alike. *)
let prop_tree_matches_model =
  QCheck.Test.make ~name:"tree: of_parents matches a list model" ~count:300
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let g, root, bindings, n = random_bindings (Rng.create seed) in
      let t = Tree.of_parents g ~root ~parents:bindings in
      let members = List.sort compare (root :: List.map fst bindings) in
      let rec chain v = if v = root then [ v ] else v :: chain (fst (List.assoc v bindings)) in
      let children v =
        List.filter_map (fun (c, (p, l)) -> if p = v then Some (c, l) else None) bindings
        |> List.sort compare
      in
      let edges =
        List.map (fun (c, (p, l)) -> (p, c, l)) bindings
        |> List.sort (fun (_, a, _) (_, b, _) -> compare a b)
      in
      let raises_not_found f = match f () with _ -> false | exception Not_found -> true in
      let per_node v =
        let m = List.mem v members in
        Tree.mem t v = m
        && Tree.parent t v = List.assoc_opt v bindings
        && Tree.children t v = children v
        &&
        if m then
          Tree.depth t v = List.length (chain v) - 1
          && Tree.path_from_root t v = List.rev (chain v)
        else
          raises_not_found (fun () -> Tree.depth t v)
          && raises_not_found (fun () -> Tree.path_from_root t v)
      in
      Tree.root t = root
      && Tree.members t = members
      && Tree.cost t = List.length bindings
      && Tree.edges t = edges
      && Tree.link_ids t = List.rev_map (fun (_, _, l) -> l) edges
      && Tree.max_depth t
         = List.fold_left (fun acc v -> max acc (List.length (chain v) - 1)) 0 members
      && List.for_all per_node (List.init (n + 1) Fun.id)
      && Tree.validate g t ~dests:members = Ok ())

let test_tree_validate_down_link () =
  let g, nodes = line_graph 3 in
  let lid01 = Option.get (Graph.link_between g nodes.(0) nodes.(1)) in
  let t = Tree.of_parents g ~root:nodes.(0) ~parents:[ (nodes.(1), (nodes.(0), lid01)) ] in
  Graph.fail_link g lid01;
  (match Tree.validate g t ~dests:[ nodes.(1) ] with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "expected failure on down link");
  Graph.restore_all g

let test_tree_validate_missing_dest () =
  let g, nodes = line_graph 3 in
  let lid01 = Option.get (Graph.link_between g nodes.(0) nodes.(1)) in
  let t = Tree.of_parents g ~root:nodes.(0) ~parents:[ (nodes.(1), (nodes.(0), lid01)) ] in
  match Tree.validate g t ~dests:[ nodes.(2) ] with
  | Error msg ->
      Alcotest.(check bool) "mentions missing dest" true
        (String.length msg > 0)
  | Ok () -> Alcotest.fail "expected missing-destination error"

(* ------------------------------------------------------------------ *)
(* Exact (Dreyfus-Wagner)                                              *)
(* ------------------------------------------------------------------ *)

let test_exact_two_terminals_is_distance () =
  let g, nodes = line_graph 6 in
  Alcotest.(check (option int)) "path length" (Some 5)
    (Exact.steiner_cost g ~terminals:[ nodes.(0); nodes.(5) ])

let test_exact_star () =
  (* Hub 0 with 4 rays: spanning all leaves costs 4. *)
  let b = Graph.Builder.create () in
  let hub = Graph.Builder.add_node b Graph.Tor ~pod:0 ~idx:0 in
  let leaves =
    Array.init 4 (fun i ->
        let v = Graph.Builder.add_node b Graph.Host ~pod:0 ~idx:i in
        ignore (Graph.Builder.add_duplex b ~bandwidth:1e9 hub v);
        v)
  in
  let g = Graph.Builder.finish b in
  Alcotest.(check (option int)) "star" (Some 4)
    (Exact.steiner_cost g ~terminals:(Array.to_list leaves))

let test_exact_trivial () =
  let g, nodes = line_graph 3 in
  Alcotest.(check (option int)) "empty" (Some 0) (Exact.steiner_cost g ~terminals:[]);
  Alcotest.(check (option int)) "singleton" (Some 0)
    (Exact.steiner_cost g ~terminals:[ nodes.(1) ])

let test_exact_disconnected () =
  let g, nodes = line_graph 3 in
  let lid = Option.get (Graph.link_between g nodes.(1) nodes.(2)) in
  Graph.fail_link g lid;
  Alcotest.(check (option int)) "unreachable" None
    (Exact.steiner_cost g ~terminals:[ nodes.(0); nodes.(2) ]);
  Graph.restore_all g

let test_exact_too_many_terminals () =
  let g, nodes = line_graph 20 in
  let terms = Array.to_list (Array.sub nodes 0 13) in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Exact.steiner_cost g ~terminals:terms);
       false
     with Invalid_argument _ -> true)

let test_exact_steiner_point_helps () =
  (* Spider: center c, three legs of length 2 to terminals.  The optimal
     tree uses the non-terminal center: cost 6. *)
  let b = Graph.Builder.create () in
  let c = Graph.Builder.add_node b Graph.Tor ~pod:0 ~idx:0 in
  let terms =
    List.init 3 (fun i ->
        let mid = Graph.Builder.add_node b Graph.Tor ~pod:0 ~idx:(10 + i) in
        let t = Graph.Builder.add_node b Graph.Host ~pod:0 ~idx:i in
        ignore (Graph.Builder.add_duplex b ~bandwidth:1e9 c mid);
        ignore (Graph.Builder.add_duplex b ~bandwidth:1e9 mid t);
        t)
  in
  let g = Graph.Builder.finish b in
  Alcotest.(check (option int)) "spider" (Some 6) (Exact.steiner_cost g ~terminals:terms)

(* ------------------------------------------------------------------ *)
(* Symmetric optimal (Lemma 2.1)                                       *)
(* ------------------------------------------------------------------ *)

let test_symmetric_leaf_spine_matches_exact () =
  let f = Fabric.leaf_spine ~spines:2 ~leaves:3 ~hosts_per_leaf:2 () in
  let hosts = Fabric.hosts f in
  let source = hosts.(0) in
  let dests = [ hosts.(1); hosts.(2); hosts.(4) ] in
  let t = Symmetric.build f ~source ~dests in
  check_valid (Fabric.graph f) t ~dests;
  let exact = Option.get (Exact.steiner_cost (Fabric.graph f) ~terminals:(source :: dests)) in
  Alcotest.(check int) "optimal cost" exact (Tree.cost t)

let test_symmetric_fat_tree_matches_exact () =
  let f = Fabric.fat_tree ~k:4 () in
  let hosts = Fabric.hosts f in
  (* Destinations spanning same-ToR, same-pod and cross-pod cases. *)
  let source = hosts.(0) in
  let dests = [ hosts.(1); hosts.(3); hosts.(8); hosts.(15) ] in
  let t = Symmetric.build f ~source ~dests in
  check_valid (Fabric.graph f) t ~dests;
  let exact = Option.get (Exact.steiner_cost (Fabric.graph f) ~terminals:(source :: dests)) in
  Alcotest.(check int) "optimal cost" exact (Tree.cost t)

let test_symmetric_same_host_gpus () =
  let f = Fabric.fat_tree ~k:4 ~gpus_per_host:4 () in
  (match f with
  | Fabric.Ft ft ->
      let gpus0 = ft.Fat_tree.gpus_of_host.(0) in
      let source = gpus0.(0) in
      let dests = [ gpus0.(1); gpus0.(2) ] in
      let t = Symmetric.build f ~source ~dests in
      check_valid (Fabric.graph f) t ~dests;
      (* gpu -> host -> 2 gpus: 3 NVLink edges, no fabric edge. *)
      Alcotest.(check int) "3 edges" 3 (Tree.cost t)
  | Fabric.Ls _ | Fabric.Rl _ | Fabric.Zo _ -> Alcotest.fail "expected fat-tree")

let test_symmetric_cross_pod_gpu () =
  let f = Fabric.fat_tree ~k:4 ~gpus_per_host:2 () in
  let gpus = Fabric.gpus f in
  let source = gpus.(0) in
  let dest = gpus.(Array.length gpus - 1) in
  let t = Symmetric.build f ~source ~dests:[ dest ] in
  check_valid (Fabric.graph f) t ~dests:[ dest ];
  (* gpu-NIC->tor->agg->core->agg->tor->gpu-NIC = 6 edges. *)
  Alcotest.(check int) "6 edges" 6 (Tree.cost t)

let test_symmetric_source_in_dests_ignored () =
  let f = Fabric.leaf_spine ~spines:2 ~leaves:2 ~hosts_per_leaf:2 () in
  let hosts = Fabric.hosts f in
  let t = Symmetric.build f ~source:hosts.(0) ~dests:[ hosts.(0); hosts.(1) ] in
  check_valid (Fabric.graph f) t ~dests:[ hosts.(1) ]

let test_symmetric_broadcast_cost_formula () =
  (* Full-fabric broadcast in a leaf-spine: cost = hosts-1 (down edges to
     other hosts) + 1 (src->leaf) + 1 (leaf->spine) + (leaves-1). *)
  let spines = 4 and leaves = 4 and hpl = 4 in
  let f = Fabric.leaf_spine ~spines ~leaves ~hosts_per_leaf:hpl () in
  let hosts = Fabric.hosts f in
  let source = hosts.(0) in
  let dests = Array.to_list (Array.sub hosts 1 (Array.length hosts - 1)) in
  let t = Symmetric.build f ~source ~dests in
  check_valid (Fabric.graph f) t ~dests;
  let expected = (leaves * hpl) - 1 + 1 + 1 + (leaves - 1) in
  Alcotest.(check int) "broadcast cost" expected (Tree.cost t)

(* ------------------------------------------------------------------ *)
(* Layer-peeling greedy                                                *)
(* ------------------------------------------------------------------ *)

let test_peel_symmetric_equals_optimal_leaf_spine () =
  let f = Fabric.leaf_spine ~spines:3 ~leaves:4 ~hosts_per_leaf:2 () in
  let hosts = Fabric.hosts f in
  let source = hosts.(0) in
  let dests = [ hosts.(2); hosts.(3); hosts.(5); hosts.(7) ] in
  let greedy = expect_tree (Layer_peel.build (Fabric.graph f) ~source ~dests) in
  check_valid (Fabric.graph f) greedy ~dests;
  let opt = Symmetric.build f ~source ~dests in
  Alcotest.(check int) "greedy = optimal in symmetric fabric" (Tree.cost opt)
    (Tree.cost greedy)

let test_peel_symmetric_equals_optimal_fat_tree () =
  let f = Fabric.fat_tree ~k:4 () in
  let hosts = Fabric.hosts f in
  let source = hosts.(0) in
  let dests = [ hosts.(1); hosts.(5); hosts.(9); hosts.(13) ] in
  let greedy = expect_tree (Layer_peel.build (Fabric.graph f) ~source ~dests) in
  check_valid (Fabric.graph f) greedy ~dests;
  let opt = Symmetric.build f ~source ~dests in
  Alcotest.(check int) "greedy = optimal in symmetric fat-tree" (Tree.cost opt)
    (Tree.cost greedy)

let test_peel_unreachable_dest () =
  let g, nodes = line_graph 3 in
  Graph.fail_link g (Option.get (Graph.link_between g nodes.(1) nodes.(2)));
  Alcotest.(check bool) "None" true
    (Layer_peel.build g ~source:nodes.(0) ~dests:[ nodes.(2) ] = None);
  Graph.restore_all g

let test_peel_farthest_layer () =
  let f = Fabric.fat_tree ~k:4 () in
  let hosts = Fabric.hosts f in
  Alcotest.(check (option int)) "cross-pod F" (Some 6)
    (Layer_peel.farthest_layer (Fabric.graph f) ~source:hosts.(0)
       ~dests:[ hosts.(1); hosts.(15) ])

let test_peel_paper_example_shape () =
  (* An asymmetric leaf-spine akin to the paper's Fig. 2: failures force
     the greedy around missing links, and the tree must stay valid. *)
  let f = Fabric.leaf_spine ~spines:2 ~leaves:4 ~hosts_per_leaf:2 () in
  let g = Fabric.graph f in
  (match f with
  | Fabric.Ls ls ->
      (* Disconnect spine 0 from leaves 2 and 3: spine 1 must carry them. *)
      let spine0 = ls.Leaf_spine.spines.(0) in
      let leaf2 = ls.Leaf_spine.leaves.(2) and leaf3 = ls.Leaf_spine.leaves.(3) in
      Graph.fail_link g (Option.get (Graph.link_between g spine0 leaf2));
      Graph.fail_link g (Option.get (Graph.link_between g spine0 leaf3));
      let hosts = Fabric.hosts f in
      let source = hosts.(0) in
      let dests = [ hosts.(2); hosts.(4); hosts.(6) ] in
      let t = expect_tree (Layer_peel.build g ~source ~dests) in
      check_valid g t ~dests;
      (* spine1 covers leaves 1,2,3 with a single up pass: cost 1 (host->leaf)
         + 1 (leaf->spine1) + 3 (spine->leaves) + 3 (leaf->host) = 8. *)
      Alcotest.(check int) "routes around failures" 8 (Tree.cost t);
      Graph.restore_all g
  | Fabric.Ft _ | Fabric.Rl _ | Fabric.Zo _ -> Alcotest.fail "expected leaf-spine")

let test_peel_deterministic () =
  let f = Fabric.fat_tree ~k:4 () in
  let hosts = Fabric.hosts f in
  let source = hosts.(2) in
  let dests = [ hosts.(6); hosts.(10); hosts.(14) ] in
  let t1 = expect_tree (Layer_peel.build (Fabric.graph f) ~source ~dests) in
  let t2 = expect_tree (Layer_peel.build (Fabric.graph f) ~source ~dests) in
  Alcotest.(check (list int)) "same links"
    (List.sort compare (Tree.link_ids t1))
    (List.sort compare (Tree.link_ids t2))

(* Property: on random asymmetric leaf-spines the greedy tree is valid,
   spans all destinations, costs at least the exact optimum and at most
   |D| * F (Lemma 2.3). *)
let prop_peel_asymmetric =
  QCheck.Test.make ~name:"layer-peel: valid, bounded, >= exact optimum" ~count:40
    QCheck.(int_range 0 100000)
    (fun seed ->
      let rng = Rng.create seed in
      let f = Fabric.leaf_spine ~spines:3 ~leaves:4 ~hosts_per_leaf:2 () in
      let g = Fabric.graph f in
      let _ = Fabric.fail_random f ~rng ~tier:`All ~fraction:0.25 () in
      let hosts = Fabric.hosts f in
      let n = Array.length hosts in
      let source = hosts.(Rng.int rng n) in
      let dests =
        Rng.sample_without_replacement rng n 4
        |> List.map (fun i -> hosts.(i))
        |> List.filter (fun d -> d <> source)
      in
      let ok =
        match Layer_peel.build g ~source ~dests with
        | None -> false (* fail_random keeps hosts connected *)
        | Some t -> (
            match Tree.validate g t ~dests with
            | Error _ -> false
            | Ok () ->
                let cost = Tree.cost t in
                let far = Option.get (Layer_peel.farthest_layer g ~source ~dests) in
                let bound = List.length dests * far in
                let exact =
                  Option.get (Exact.steiner_cost g ~terminals:(source :: dests))
                in
                cost >= exact && cost <= max bound exact)
      in
      Graph.restore_all g;
      ok)

(* Property: on fat-trees with random ToR-uplink failures the greedy
   tree stays valid and within the Lemma 2.3 bound. *)
let prop_peel_fat_tree_failures =
  QCheck.Test.make ~name:"layer-peel valid on failed fat-trees" ~count:30
    QCheck.(int_range 0 100000)
    (fun seed ->
      let rng = Rng.create seed in
      let f = Fabric.fat_tree ~k:4 ~gpus_per_host:2 () in
      let g = Fabric.graph f in
      let _ = Fabric.fail_random f ~rng ~tier:`All ~fraction:0.15 () in
      let eps = Fabric.endpoints f in
      let n = Array.length eps in
      let source = eps.(Rng.int rng n) in
      let dests =
        Rng.sample_without_replacement rng n 6
        |> List.map (fun i -> eps.(i))
        |> List.filter (fun d -> d <> source)
      in
      let ok =
        match Layer_peel.build g ~source ~dests with
        | None -> dests = []
        | Some t -> (
            match Tree.validate g t ~dests with
            | Error _ -> false
            | Ok () ->
                let far =
                  Option.get (Layer_peel.farthest_layer g ~source ~dests)
                in
                Tree.cost t <= List.length dests * far)
      in
      Graph.restore_all g;
      ok)

(* Property: in symmetric leaf-spine fabrics greedy cost equals the
   Lemma 2.1 optimum. *)
let prop_peel_symmetric_optimal =
  QCheck.Test.make ~name:"layer-peel matches optimum in symmetric fabrics" ~count:40
    QCheck.(int_range 0 100000)
    (fun seed ->
      let rng = Rng.create seed in
      let f = Fabric.leaf_spine ~spines:4 ~leaves:6 ~hosts_per_leaf:2 () in
      let hosts = Fabric.hosts f in
      let n = Array.length hosts in
      let source = hosts.(Rng.int rng n) in
      let dests =
        Rng.sample_without_replacement rng n 5
        |> List.map (fun i -> hosts.(i))
        |> List.filter (fun d -> d <> source)
      in
      if dests = [] then true
      else begin
        let greedy =
          expect_tree (Layer_peel.build (Fabric.graph f) ~source ~dests)
        in
        let opt = Symmetric.build f ~source ~dests in
        Tree.cost greedy = Tree.cost opt
      end)

(* Property (Theorem 2.5, differential form): on small random fabrics —
   a k=4 fat-tree or a tiny leaf-spine — with random failure draws, the
   greedy cost stays within min(F, |D|) of the Dreyfus-Wagner exact
   optimum computed on the same failed graph.  This tightens the
   |D| * F envelope above: cost <= |D|*F = min*max <= min(F,|D|)*OPT
   since OPT >= F (farthest terminal) and OPT >= |D| (distinct parent
   edges). *)
let prop_peel_differential_min_bound =
  QCheck.Test.make ~name:"layer-peel <= min(F,|D|) x exact optimum" ~count:40
    QCheck.(pair bool (int_range 0 100000))
    (fun (fat, seed) ->
      let rng = Rng.create seed in
      let f =
        if fat then Fabric.fat_tree ~k:4 ()
        else Fabric.leaf_spine ~spines:2 ~leaves:4 ~hosts_per_leaf:2 ()
      in
      let g = Fabric.graph f in
      let _ = Fabric.fail_random f ~rng ~tier:`All ~fraction:0.2 () in
      let eps = Fabric.endpoints f in
      let n = Array.length eps in
      let source = eps.(Rng.int rng n) in
      let dests =
        Rng.sample_without_replacement rng n 4
        |> List.map (fun i -> eps.(i))
        |> List.filter (fun d -> d <> source)
      in
      let ok =
        if dests = [] then true
        else
          match Layer_peel.build g ~source ~dests with
          | None -> false (* fail_random keeps endpoints connected *)
          | Some t -> (
              match Tree.validate g t ~dests with
              | Error _ -> false
              | Ok () ->
                  let far =
                    Option.get (Layer_peel.farthest_layer g ~source ~dests)
                  in
                  let exact =
                    Option.get
                      (Exact.steiner_cost g ~terminals:(source :: dests))
                  in
                  Tree.cost t >= exact
                  && Tree.cost t <= min far (List.length dests) * exact)
      in
      Graph.restore_all g;
      ok)

(* Property: on unfailed fat-trees the greedy also matches the
   symmetric optimum (the property above this family covers only
   leaf-spines). *)
let prop_peel_symmetric_optimal_fat_tree =
  QCheck.Test.make ~name:"layer-peel matches optimum in symmetric fat-trees"
    ~count:30
    QCheck.(int_range 0 100000)
    (fun seed ->
      let rng = Rng.create seed in
      let f = Fabric.fat_tree ~k:4 ~gpus_per_host:2 () in
      let eps = Fabric.endpoints f in
      let n = Array.length eps in
      let source = eps.(Rng.int rng n) in
      let dests =
        Rng.sample_without_replacement rng n 5
        |> List.map (fun i -> eps.(i))
        |> List.filter (fun d -> d <> source)
      in
      if dests = [] then true
      else
        let greedy =
          expect_tree (Layer_peel.build (Fabric.graph f) ~source ~dests)
        in
        Tree.cost greedy = Tree.cost (Symmetric.build f ~source ~dests))

(* Property: after failing a tree edge (plus a small random extra draw)
   [repeel] returns a valid tree on the surviving fabric that keeps
   every surviving binding of the previous one — the TREE006 splice
   contract, checked with the static checker itself. *)
let prop_repeel_valid_and_splice =
  QCheck.Test.make ~name:"repeel: valid + splice-preserving after failures"
    ~count:40
    QCheck.(int_range 0 100000)
    (fun seed ->
      let rng = Rng.create seed in
      let f = Fabric.leaf_spine ~spines:3 ~leaves:4 ~hosts_per_leaf:2 () in
      let g = Fabric.graph f in
      let hosts = Fabric.hosts f in
      let n = Array.length hosts in
      let source = hosts.(Rng.int rng n) in
      let dests =
        Rng.sample_without_replacement rng n 5
        |> List.map (fun i -> hosts.(i))
        |> List.filter (fun d -> d <> source)
      in
      if dests = [] then true
      else begin
        let prev = expect_tree (Layer_peel.build g ~source ~dests) in
        let edges = Tree.link_ids prev in
        let victim = List.nth edges (Rng.int rng (List.length edges)) in
        Graph.fail_link g victim;
        (* One more spine-leaf cable down with no connectivity
           guarantee — the victim may already cut a host off; the
           [None] arm below covers that outcome. *)
        (match f with
        | Fabric.Ls ls ->
            let cables = Leaf_spine.spine_leaf_duplex_links ls in
            Graph.fail_link g cables.(Rng.int rng (Array.length cables))
        | _ -> assert false);
        let ok =
          match Layer_peel.repeel g ~prev ~source ~dests with
          | None ->
              (* Only acceptable when the cut disconnected a dest. *)
              not (Graph.connected g (source :: dests))
          | Some t ->
              Tree.validate g t ~dests = Ok ()
              && Peel_check.Diagnostic.errors
                   (Peel_check.Check_tree.check_splice g ~prev ~tree:t
                      ~source ~dests)
                 = []
        in
        Graph.restore_all g;
        ok
      end)

(* Property: re-peeling without any failure is the identity — same
   links, same cost, nothing rewired. *)
let prop_repeel_identity_without_failures =
  QCheck.Test.make ~name:"repeel: identity on unfailed fabrics" ~count:40
    QCheck.(int_range 0 100000)
    (fun seed ->
      let rng = Rng.create seed in
      let f = Fabric.fat_tree ~k:4 () in
      let g = Fabric.graph f in
      let hosts = Fabric.hosts f in
      let n = Array.length hosts in
      let source = hosts.(Rng.int rng n) in
      let dests =
        Rng.sample_without_replacement rng n 4
        |> List.map (fun i -> hosts.(i))
        |> List.filter (fun d -> d <> source)
      in
      if dests = [] then true
      else
        let prev = expect_tree (Layer_peel.build g ~source ~dests) in
        match Layer_peel.repeel g ~prev ~source ~dests with
        | None -> false
        | Some t ->
            Tree.cost t = Tree.cost prev
            && List.sort compare (Tree.link_ids t)
               = List.sort compare (Tree.link_ids prev))

(* Property (the service's delta-repeel differential): absorb a random
   join/leave delta sequence through [splice] under the Service's
   acceptance rule — structural validity plus the Theorem 2.5 cost
   envelope, falling back to a full peel otherwise — and at every step
   compare the maintained tree against the from-scratch peel of the
   current membership and the exact-entry delivery oracle
   ([Dataplane.deliver_exact]).  Both plans must reach exactly the
   member racks, and the incremental tree must never leave the full
   peel's approximation envelope. *)
let prop_splice_differential =
  QCheck.Test.make
    ~name:"splice differential: delta plans track the from-scratch peel"
    ~count:200
    QCheck.(int_range 0 100000)
    (fun seed ->
      let rng = Rng.create seed in
      let f =
        if Rng.bool rng then
          Fabric.leaf_spine ~spines:3 ~leaves:6 ~hosts_per_leaf:2 ()
        else Fabric.fat_tree ~k:4 ()
      in
      let g = Fabric.graph f in
      let hosts = Fabric.hosts f in
      let n = Array.length hosts in
      let source = hosts.(Rng.int rng n) in
      let dests0 =
        Rng.sample_without_replacement rng n 3
        |> List.map (fun i -> hosts.(i))
        |> List.filter (fun d -> d <> source)
      in
      match dests0 with
      | [] -> true
      | dests0 ->
          let dist = Graph.bfs_dist g source in
          let bound_ok dests t =
            match
              Peel_check.Check_tree.symmetric_lower_bound f ~source ~dests
            with
            | None -> true
            | Some opt -> (
                match Layer_peel.farthest_layer g ~source ~dests with
                | None -> false
                | Some far ->
                    let factor = max 1 (min far (List.length dests)) in
                    Tree.cost t <= factor * max 1 opt)
          in
          let tree_tors t =
            List.filter
              (fun v -> (Graph.node g v).Graph.kind = Graph.Tor)
              (Tree.members t)
            |> List.sort compare
          in
          let oracle_tors dests =
            Peel.Dataplane.deliver_exact f
              (Peel.Dataplane.exact_entry f ~group:0 ~members:(source :: dests))
          in
          let cur = ref (expect_tree (Layer_peel.build g ~source ~dests:dests0)) in
          let dests = ref dests0 in
          let ok = ref true in
          for _ = 1 to 6 do
            let members = source :: !dests in
            let free = List.filter (fun h -> not (List.mem h members))
                (Array.to_list hosts)
            in
            let delta, next =
              let grow =
                (free <> [] && List.length !dests <= 1)
                || (free <> [] && Rng.bool rng)
              in
              if grow then
                let d = List.nth free (Rng.int rng (List.length free)) in
                (Layer_peel.Add d, d :: !dests)
              else
                let victim =
                  List.nth !dests (Rng.int rng (List.length !dests))
                in
                (Layer_peel.Remove victim,
                 List.filter (fun d -> d <> victim) !dests)
            in
            if next <> [] then begin
              let accepted =
                match
                  Layer_peel.splice ~dist g ~prev:!cur ~source ~dests:next
                    ~delta
                with
                | Some t
                  when Tree.validate g t ~dests:next = Ok ()
                       && bound_ok next t ->
                    t
                | _ -> expect_tree (Layer_peel.build g ~source ~dests:next)
              in
              let scratch = expect_tree (Layer_peel.build g ~source ~dests:next) in
              let oracle = oracle_tors next in
              ok :=
                !ok
                && Tree.validate g accepted ~dests:next = Ok ()
                && tree_tors accepted = oracle
                && tree_tors scratch = oracle
                && bound_ok next accepted;
              cur := accepted;
              dests := next
            end
          done;
          !ok)

(* ------------------------------------------------------------------ *)
(* Pinned trees                                                        *)
(* ------------------------------------------------------------------ *)

(* Every tree-building entry point, reduced to one digest per (fabric,
   function) cell over each result's root and [Tree.edges] (or the
   outcome when there is no tree).  Seven fabrics — a fat-tree, a
   leaf-spine, a rail fabric and the four zoo classes — each run clean
   and with 20 % of their links failed, on six seeded groups of 2 to 48
   members.  A different greedy pick, parent link, tie-break or prune
   fails with the cell's name.  The digests were recorded with the
   whole-fabric peel and the [Map]-backed [Tree].  The [plan] cell
   (every packet of [Plan.build] at budgets none and 1 to 4) and the
   [bound] cell (the Theorem 2.5 [symmetric_lower_bound]) were recorded
   with the [Hashtbl]-grouped planner and the bound that restored down
   links around its count. *)
let pin_fabrics () =
  let zoo z = Fabric.of_zoo z in
  [
    ("ft-k8", Fabric.fat_tree ~k:8 ~hosts_per_tor:4 ~gpus_per_host:2 ());
    ("ls-4x8", Fabric.leaf_spine ~gpus_per_host:2 ~spines:4 ~leaves:8 ~hosts_per_leaf:2 ());
    ("rail-4x2", Fabric.rail ~rails:4 ~groups:2 ~servers_per_group:4 ~spines:4 ());
    ("abfattree", zoo (Zoo.abfattree ~hosts_per_tor:2 ~k:4 ()));
    ("vl2", zoo (Zoo.vl2 ~da:4 ~di:4 ()));
    ("jellyfish", zoo (Zoo.jellyfish ~switches:12 ~net_degree:3 ~seed:7 ()));
    ("xpander", zoo (Zoo.xpander ~net_degree:3 ~lift:4 ~seed:7 ()));
  ]

let pin_groups fabric ~seed =
  let eps = Fabric.endpoints fabric in
  let n = Array.length eps in
  let rng = Rng.create seed in
  List.map
    (fun size ->
      match Rng.sample_without_replacement rng n (min n size) with
      | s :: ds -> (eps.(s), List.map (fun i -> eps.(i)) ds)
      | [] -> assert false)
    [ 2; 3; 6; 12; 25; 48 ]

let tree_digest_into b = function
  | None -> Buffer.add_string b "none;"
  | Some t ->
      Printf.bprintf b "root %d:" (Tree.root t);
      List.iter (fun (p, c, l) -> Printf.bprintf b " %d-%d-%d" p c l) (Tree.edges t);
      Buffer.add_char b ';'

let plan_digest_into b (plan : Peel.Plan.t) =
  let ints l = String.concat "," (List.map string_of_int l) in
  let prefix (p : Peel.Cover.prefix) = Printf.sprintf "%d/%d" p.value p.len in
  Printf.bprintf b "hdr %d dests %s:" plan.header_bytes (ints plan.dests);
  List.iter
    (fun (k : Peel.Plan.packet) ->
      Printf.bprintf b " [%s %s pods %s tors %s eps %s waste %s]"
        (match k.pod_prefix with None -> "-" | Some p -> prefix p)
        (prefix k.tor_prefix) (ints k.pods) (ints k.tors) (ints k.endpoints)
        (ints k.waste_tors))
    plan.packets;
  Buffer.add_char b ';'

(* A rooted layering that is not the BFS one: endpoints sit one layer
   above the switches of their BFS ring, so an endpoint may hang off a
   switch of its own ring. *)
let tiered_layers g ~source =
  Array.mapi
    (fun v d ->
      if d = Graph.unreachable || v = source then d
      else if Graph.kind_is_switch (Graph.node g v).Graph.kind then 2 * d
      else (2 * d) + 1)
    (Graph.bfs_dist g source)

let pin_cells fabric groups =
  let g = Fabric.graph fabric in
  let eps = Fabric.endpoints fabric in
  let cell name f =
    let b = Buffer.create 1024 in
    List.iteri
      (fun i (source, dests) ->
        Printf.bprintf b "group %d:" i;
        f b i ~source ~dests)
      groups;
    (name, String.sub (Digest.to_hex (Digest.string (Buffer.contents b))) 0 16)
  in
  let guarded b f =
    match f () with
    | v -> v
    | exception Invalid_argument _ -> Buffer.add_string b "invalid;"
  in
  [
    cell "build" (fun b _ ~source ~dests ->
        tree_digest_into b (Layer_peel.build g ~source ~dests));
    cell "build-salted" (fun b i ~source ~dests ->
        tree_digest_into b (Layer_peel.build ~salt:(17 + i) g ~source ~dests));
    cell "packet-trees" (fun b _ ~source ~dests ->
        guarded b (fun () ->
            List.iter
              (fun t -> tree_digest_into b (Some t))
              (Peel.Plan.packet_trees fabric ~source ~dests)));
    cell "repeel" (fun b i ~source ~dests ->
        match Layer_peel.build g ~source ~dests with
        | None -> Buffer.add_string b "none;"
        | Some prev ->
            let rng = Rng.create (300 + i) in
            let lids = Array.of_list (Tree.link_ids prev) in
            let cut =
              List.filter (Graph.link_up g)
                [ rng_pick rng lids; rng_pick rng lids ]
              |> List.sort_uniq compare
            in
            List.iter (Graph.fail_link g) cut;
            tree_digest_into b (Layer_peel.repeel ~salt:i g ~prev ~source ~dests);
            tree_digest_into b (Layer_peel.repeel g ~prev ~source ~dests);
            List.iter (Graph.recover_link g) cut);
    cell "splice" (fun b i ~source ~dests ->
        let rng = Rng.create (500 + i) in
        let dist = Graph.bfs_dist g source in
        let cur = ref (Layer_peel.build g ~source ~dests) in
        let dests = ref dests in
        for step = 1 to 8 do
          match !cur with
          | None -> ()
          | Some prev ->
              let free =
                List.filter
                  (fun e -> e <> source && not (List.mem e !dests))
                  (Array.to_list eps)
              in
              let delta, next =
                if free <> [] && (List.length !dests <= 1 || Rng.bool rng) then
                  let d = List.nth free (Rng.int rng (List.length free)) in
                  (Layer_peel.Add d, d :: !dests)
                else
                  let d = List.nth !dests (Rng.int rng (List.length !dests)) in
                  (Layer_peel.Remove d, List.filter (fun x -> x <> d) !dests)
              in
              let dist = if step mod 2 = 0 then Some dist else None in
              let t =
                Layer_peel.splice ?salt:(if i mod 3 = 0 then Some i else None) ?dist
                  g ~prev ~source ~dests:next ~delta
              in
              tree_digest_into b t;
              cur := (match t with Some _ -> t | None -> Layer_peel.build g ~source ~dests:next);
              dests := next
        done);
    cell "peel-general" (fun b i ~source ~dests ->
        tree_digest_into b (Layer_peel.peel_general ~salt:i g ~source ~dests);
        tree_digest_into b (Layer_peel.peel_general g ~source ~dests));
    cell "peel-general-layers" (fun b i ~source ~dests ->
        let layers = tiered_layers g ~source in
        guarded b (fun () ->
            tree_digest_into b (Layer_peel.peel_general ~layers g ~source ~dests));
        guarded b (fun () ->
            tree_digest_into b
              (Layer_peel.peel_general ~salt:i ~layers g ~source ~dests)));
    cell "symmetric" (fun b _ ~source ~dests ->
        guarded b (fun () ->
            tree_digest_into b (Some (Symmetric.build fabric ~source ~dests))));
    cell "farthest" (fun b _ ~source ~dests ->
        match Layer_peel.farthest_layer g ~source ~dests with
        | None -> Buffer.add_string b "none;"
        | Some f -> Printf.bprintf b "%d;" f);
    cell "plan" (fun b _ ~source ~dests ->
        List.iter
          (fun budget ->
            guarded b (fun () ->
                plan_digest_into b (Peel.Plan.build ?budget fabric ~source ~dests)))
          [ None; Some 1; Some 2; Some 3; Some 4 ]);
    (* The bound on the group, on the empty group, and with a switch
       (the source's ToR) as a member; a call that leaves any link's
       [up] flag changed is recorded too. *)
    cell "bound" (fun b _ ~source ~dests ->
        let ups () = Array.map (fun (l : Graph.link) -> l.Graph.up) (Graph.links g) in
        let before = ups () in
        List.iter
          (fun dests ->
            match Peel_check.Check_tree.symmetric_lower_bound fabric ~source ~dests with
            | None -> Buffer.add_string b "none;"
            | Some c -> Printf.bprintf b "%d;" c)
          [ dests; []; Fabric.attach_tor fabric source :: dests ];
        if ups () <> before then Buffer.add_string b "link state changed;");
  ]

let tree_corpus () =
  List.concat_map
    (fun (fname, fabric) ->
      let groups = pin_groups fabric ~seed:41 in
      let clean = pin_cells fabric groups in
      let failed =
        ignore
          (Fabric.fail_random fabric ~rng:(Rng.create 45) ~tier:`All
             ~fraction:0.2 ());
        let cells = pin_cells fabric groups in
        Graph.restore_all (Fabric.graph fabric);
        cells
      in
      List.map (fun (c, d) -> (fname ^ "/" ^ c, d)) clean
      @ List.map (fun (c, d) -> (fname ^ "-failed/" ^ c, d)) failed)
    (pin_fabrics ())

let pinned_trees =
  [
    ("ft-k8/build", "4e5613644b741796");
    ("ft-k8/build-salted", "c314c84efd4cf18c");
    ("ft-k8/packet-trees", "910d5253a79567d5");
    ("ft-k8/repeel", "5290465c82c5d992");
    ("ft-k8/splice", "45a588bbf5e9e6fe");
    ("ft-k8/peel-general", "4bda0e4eff1ec84d");
    ("ft-k8/peel-general-layers", "c4088de23b90054b");
    ("ft-k8/symmetric", "4e5613644b741796");
    ("ft-k8/farthest", "bc4d66d05b801e0a");
    ("ft-k8/plan", "8b94764436208e6b");
    ("ft-k8/bound", "f2eab2771adb4c39");
    ("ft-k8-failed/build", "8d808edf545e97a8");
    ("ft-k8-failed/build-salted", "d7bd2e69550fb101");
    ("ft-k8-failed/packet-trees", "a9016b23cadddc9b");
    ("ft-k8-failed/repeel", "7d6679df581f3e9f");
    ("ft-k8-failed/splice", "e7f68c17c7f9440e");
    ("ft-k8-failed/peel-general", "52448996c4ab51f4");
    ("ft-k8-failed/peel-general-layers", "ebad2e78c6d0d2e3");
    ("ft-k8-failed/symmetric", "beca572b349915c8");
    ("ft-k8-failed/farthest", "bc4d66d05b801e0a");
    ("ft-k8-failed/plan", "8b94764436208e6b");
    ("ft-k8-failed/bound", "f2eab2771adb4c39");
    ("ls-4x8/build", "92fb528e54730781");
    ("ls-4x8/build-salted", "4f8488929b611edd");
    ("ls-4x8/packet-trees", "c309fa40fad2a6b1");
    ("ls-4x8/repeel", "2d09ee065ecaab42");
    ("ls-4x8/splice", "01d831637e393ed6");
    ("ls-4x8/peel-general", "b8cde44a520665e3");
    ("ls-4x8/peel-general-layers", "a9d7f667515fc616");
    ("ls-4x8/symmetric", "92fb528e54730781");
    ("ls-4x8/farthest", "b394759477baa7f7");
    ("ls-4x8/plan", "ac456f11b59c07e0");
    ("ls-4x8/bound", "81f0604c33bae8e0");
    ("ls-4x8-failed/build", "55833f79981a375c");
    ("ls-4x8-failed/build-salted", "893bf4cd48fc835b");
    ("ls-4x8-failed/packet-trees", "30b9dba271887b39");
    ("ls-4x8-failed/repeel", "862aa3607e92e6a2");
    ("ls-4x8-failed/splice", "99a1d9cff0f21098");
    ("ls-4x8-failed/peel-general", "dcb0f1f0f18a84aa");
    ("ls-4x8-failed/peel-general-layers", "81c4b321137fd841");
    ("ls-4x8-failed/symmetric", "aa09cf87fe0691f0");
    ("ls-4x8-failed/farthest", "b394759477baa7f7");
    ("ls-4x8-failed/plan", "ac456f11b59c07e0");
    ("ls-4x8-failed/bound", "81f0604c33bae8e0");
    ("rail-4x2/build", "28ba5a15974833ad");
    ("rail-4x2/build-salted", "a2ba5c67d74e6016");
    ("rail-4x2/packet-trees", "2653df4b21c13c48");
    ("rail-4x2/repeel", "13bc0efca008e4e9");
    ("rail-4x2/splice", "c3ad0284f0d0ebfc");
    ("rail-4x2/peel-general", "5eadbfa43de1501b");
    ("rail-4x2/peel-general-layers", "bbeb5b5a0edb1ae3");
    ("rail-4x2/symmetric", "48cbca3576ff6ff6");
    ("rail-4x2/farthest", "b394759477baa7f7");
    ("rail-4x2/plan", "611bea05ae589fbc");
    ("rail-4x2/bound", "19734958e19caade");
    ("rail-4x2-failed/build", "588a0c1ec8c666c1");
    ("rail-4x2-failed/build-salted", "6d651b5a97ae4d47");
    ("rail-4x2-failed/packet-trees", "b68a79715787f9a3");
    ("rail-4x2-failed/repeel", "e142b21bfbae5ef2");
    ("rail-4x2-failed/splice", "7472e51f172d676c");
    ("rail-4x2-failed/peel-general", "4112fd55e3b674ae");
    ("rail-4x2-failed/peel-general-layers", "b0b43f8942a6f171");
    ("rail-4x2-failed/symmetric", "d2553e0edfdb43fe");
    ("rail-4x2-failed/farthest", "b394759477baa7f7");
    ("rail-4x2-failed/plan", "611bea05ae589fbc");
    ("rail-4x2-failed/bound", "19734958e19caade");
    ("abfattree/build", "b83fa121d12e22c7");
    ("abfattree/build-salted", "f8d68ce47b3eb7c8");
    ("abfattree/packet-trees", "97db85a9ddc31a45");
    ("abfattree/repeel", "97610c48c0381ef2");
    ("abfattree/splice", "c58e52ff467f71b7");
    ("abfattree/peel-general", "0adda9124039d3e2");
    ("abfattree/peel-general-layers", "42889c002948c4d4");
    ("abfattree/symmetric", "d2553e0edfdb43fe");
    ("abfattree/farthest", "bc4d66d05b801e0a");
    ("abfattree/plan", "5a54db1770d13ecd");
    ("abfattree/bound", "e436afb4c44e23f7");
    ("abfattree-failed/build", "58b3ef7f26107d22");
    ("abfattree-failed/build-salted", "45b68fa720d1bdb6");
    ("abfattree-failed/packet-trees", "78a131009ff93a6a");
    ("abfattree-failed/repeel", "8c633b73270e64e3");
    ("abfattree-failed/splice", "0763e78ab8f7da37");
    ("abfattree-failed/peel-general", "b408e08479b7c612");
    ("abfattree-failed/peel-general-layers", "85dd8881f9ea9c32");
    ("abfattree-failed/symmetric", "d2553e0edfdb43fe");
    ("abfattree-failed/farthest", "f1e93a9d236c68c6");
    ("abfattree-failed/plan", "5a54db1770d13ecd");
    ("abfattree-failed/bound", "e436afb4c44e23f7");
    ("vl2/build", "65f27c951c80a07c");
    ("vl2/build-salted", "54dd57101ed39fe2");
    ("vl2/packet-trees", "1bbe5dcef8bae81e");
    ("vl2/repeel", "38f72e4d463e455d");
    ("vl2/splice", "5bbc8590462338c3");
    ("vl2/peel-general", "b04e181b79a31f18");
    ("vl2/peel-general-layers", "f4889bc042198b2e");
    ("vl2/symmetric", "d2553e0edfdb43fe");
    ("vl2/farthest", "bc4d66d05b801e0a");
    ("vl2/plan", "1f61f2e80598a44e");
    ("vl2/bound", "e436afb4c44e23f7");
    ("vl2-failed/build", "979525e6671d05a1");
    ("vl2-failed/build-salted", "979525e6671d05a1");
    ("vl2-failed/packet-trees", "0a9023e507839c37");
    ("vl2-failed/repeel", "97610c48c0381ef2");
    ("vl2-failed/splice", "0763d88cdde9f97b");
    ("vl2-failed/peel-general", "fc277da13e2ebe4b");
    ("vl2-failed/peel-general-layers", "fc277da13e2ebe4b");
    ("vl2-failed/symmetric", "d2553e0edfdb43fe");
    ("vl2-failed/farthest", "bc4d66d05b801e0a");
    ("vl2-failed/plan", "1f61f2e80598a44e");
    ("vl2-failed/bound", "e436afb4c44e23f7");
    ("jellyfish/build", "24fbb756fc00a35d");
    ("jellyfish/build-salted", "c11519a4f74f67d2");
    ("jellyfish/packet-trees", "7cd09a9611d503d8");
    ("jellyfish/repeel", "2ea09eed1d1e8090");
    ("jellyfish/splice", "0d3c1cad8ea83bcf");
    ("jellyfish/peel-general", "6ad6a4c4932539b3");
    ("jellyfish/peel-general-layers", "1cc4e2d557741dc0");
    ("jellyfish/symmetric", "d2553e0edfdb43fe");
    ("jellyfish/farthest", "ea241951234faeeb");
    ("jellyfish/plan", "5fe6c25932e10d29");
    ("jellyfish/bound", "e436afb4c44e23f7");
    ("jellyfish-failed/build", "d5a62f4476e9d787");
    ("jellyfish-failed/build-salted", "c458e449b2ee9668");
    ("jellyfish-failed/packet-trees", "335a7630afaf969d");
    ("jellyfish-failed/repeel", "97610c48c0381ef2");
    ("jellyfish-failed/splice", "e05e70fe7a626a70");
    ("jellyfish-failed/peel-general", "ea0c702560fafb11");
    ("jellyfish-failed/peel-general-layers", "7cca90db75a63383");
    ("jellyfish-failed/symmetric", "d2553e0edfdb43fe");
    ("jellyfish-failed/farthest", "45deedfe59bc8630");
    ("jellyfish-failed/plan", "5fe6c25932e10d29");
    ("jellyfish-failed/bound", "e436afb4c44e23f7");
    ("xpander/build", "98a3f6961df000ec");
    ("xpander/build-salted", "66738a0d2078e5fd");
    ("xpander/packet-trees", "0d1c3cd7b98e9a2f");
    ("xpander/repeel", "97610c48c0381ef2");
    ("xpander/splice", "e298cbf5b56c5d4a");
    ("xpander/peel-general", "297f6bf0547b0025");
    ("xpander/peel-general-layers", "7c05e53e999d7b15");
    ("xpander/symmetric", "d2553e0edfdb43fe");
    ("xpander/farthest", "ce5be9d3f670ba5f");
    ("xpander/plan", "53bbbdc4618ccfb2");
    ("xpander/bound", "e436afb4c44e23f7");
    ("xpander-failed/build", "f61712d4a43672f0");
    ("xpander-failed/build-salted", "f2860add158de9b6");
    ("xpander-failed/packet-trees", "3e9dec7acbf5f58b");
    ("xpander-failed/repeel", "97610c48c0381ef2");
    ("xpander-failed/splice", "281ae5f17efb885d");
    ("xpander-failed/peel-general", "a5f23ccf73727a5c");
    ("xpander-failed/peel-general-layers", "52e97956174f1ecf");
    ("xpander-failed/symmetric", "d2553e0edfdb43fe");
    ("xpander-failed/farthest", "37f268d8d41c75a3");
    ("xpander-failed/plan", "53bbbdc4618ccfb2");
    ("xpander-failed/bound", "e436afb4c44e23f7");
  ]

let test_trees_pinned () =
  let got = tree_corpus () in
  let drifted =
    List.filter_map
      (fun (name, d) ->
        match List.assoc_opt name pinned_trees with
        | Some want when want = d -> None
        | Some want -> Some (Printf.sprintf "%s: %s, pinned %s" name d want)
        | None -> Some (Printf.sprintf "(%S, %S);" name d))
      got
  in
  if drifted <> [] then Alcotest.failf "drifted cells:\n%s" (String.concat "\n" drifted);
  Alcotest.(check int) "corpus size" (List.length pinned_trees) (List.length got)

(* ------------------------------------------------------------------ *)
(* Tree.derive                                                         *)
(* ------------------------------------------------------------------ *)

(* The model [Tree.derive] must match: [of_parents] over [prev]'s
   bindings plus [fresh], pruned to the root and the bindings on some
   destination's chain to it. *)
let pruned_union g ~prev ~fresh ~dests =
  let root = Tree.root prev in
  let bindings = List.map (fun (p, c, l) -> (c, (p, l))) (Tree.edges prev) @ fresh in
  let needed = Hashtbl.create 16 in
  let rec need v =
    if v <> root && not (Hashtbl.mem needed v) then
      match List.assoc_opt v bindings with
      | Some (p, _) ->
          Hashtbl.replace needed v ();
          need p
      | None -> ()
  in
  List.iter need dests;
  Tree.of_parents g ~root
    ~parents:(List.filter (fun (v, _) -> Hashtbl.mem needed v) bindings)

(* A fresh chain climbed from [e] onto [prev]: at each hop a random
   neighbour one BFS layer closer over an up link, until a member;
   [None] when a hop has none. *)
let random_climb rng g ~prev ~dist e =
  let rec go v acc =
    if Tree.mem prev v then Some acc
    else
      let cands =
        Array.to_list (Graph.out_links g v)
        |> List.filter_map (fun (u, lid) ->
               let rev = Graph.peer_link lid in
               if Graph.link_up g rev && dist.(u) = dist.(v) - 1 then Some (u, rev)
               else None)
      in
      if cands = [] then None
      else
        let u, rev = List.nth cands (Rng.int rng (List.length cands)) in
        go u ((v, (u, rev)) :: acc)
  in
  if dist.(e) = Graph.unreachable then None else go e []

let derive_fabrics = lazy (pin_fabrics ())

(* Property: on the pinned fabrics, clean and with 20 % of links
   failed, [Tree.derive] over a built tree, a climbed chain and a
   random destination subset (members, fresh nodes, non-members and
   repeats) returns [of_parents]'s tree over the old pruned union. *)
let prop_derive_matches_pruned_union =
  QCheck.Test.make ~name:"tree: derive matches of_parents over the pruned union"
    ~count:300
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let fabrics = Lazy.force derive_fabrics in
      let _, fabric = List.nth fabrics (Rng.int rng (List.length fabrics)) in
      let g = Fabric.graph fabric in
      if Rng.bool rng then
        ignore
          (Fabric.fail_random fabric ~rng:(Rng.create (seed + 1)) ~tier:`All
             ~fraction:0.2 ());
      let eps = Fabric.endpoints fabric in
      let n = Array.length eps in
      let pick () = eps.(Rng.int rng n) in
      let source = pick () in
      let dests = List.init (1 + Rng.int rng 24) (fun _ -> pick ()) in
      let salt = if Rng.int rng 3 = 0 then Some seed else None in
      let ok =
        match Layer_peel.build ?salt g ~source ~dests with
        | None -> true
        | Some prev -> (
            let dist = Graph.bfs_dist g source in
            match random_climb rng g ~prev ~dist (pick ()) with
            | None -> true
            | Some fresh ->
                let pool =
                  Array.of_list (Tree.members prev @ List.map fst fresh)
                in
                let dests =
                  List.filter (fun _ -> Rng.bool rng) (Array.to_list pool)
                  @ List.init (Rng.int rng 3) (fun _ -> pick ())
                  @ List.init (Rng.int rng 2) (fun _ -> rng_pick rng pool)
                in
                let want = pruned_union g ~prev ~fresh ~dests in
                let got = Tree.derive g ~prev ~fresh ~dests in
                Tree.root got = Tree.root want
                && Tree.members got = Tree.members want
                && Tree.edges got = Tree.edges want)
      in
      Graph.restore_all g;
      ok)

(* Each rule [of_parents] applies, broken by one fresh binding onto the
   tree 0 -> 1 of a line 0 - 1 - 2 - 3. *)
let test_derive_rejects () =
  let g, nodes = line_graph 4 in
  let lid a b = Option.get (Graph.link_between g nodes.(a) nodes.(b)) in
  let prev = Tree.of_parents g ~root:nodes.(0) ~parents:[ (nodes.(1), (nodes.(0), lid 0 1)) ] in
  let rejects name msg fresh =
    Alcotest.check_raises name (Invalid_argument ("Tree.derive: " ^ msg)) (fun () ->
        ignore (Tree.derive g ~prev ~fresh ~dests:(List.map fst fresh)))
  in
  rejects "rebinds a member" "duplicate binding for a node"
    [ (nodes.(1), (nodes.(0), lid 0 1)) ];
  rejects "binds a node twice" "duplicate binding for a node"
    [ (nodes.(2), (nodes.(1), lid 1 2)); (nodes.(2), (nodes.(1), lid 1 2)) ];
  rejects "binds the root" "root cannot have a parent"
    [ (nodes.(0), (nodes.(1), lid 1 0)) ];
  rejects "wrong link" "link does not run parent->node"
    [ (nodes.(2), (nodes.(1), lid 0 1)) ];
  rejects "chain off the tree" "parent chain does not reach the root"
    [ (nodes.(3), (nodes.(2), lid 2 3)) ];
  rejects "chain cycles" "parent chain does not reach the root"
    [ (nodes.(2), (nodes.(3), lid 3 2)); (nodes.(3), (nodes.(2), lid 2 3)) ];
  (* A bad binding off every destination's chain is checked too. *)
  Alcotest.check_raises "unkept binding"
    (Invalid_argument "Tree.derive: link does not run parent->node") (fun () ->
      ignore
        (Tree.derive g ~prev ~fresh:[ (nodes.(2), (nodes.(1), lid 0 1)) ] ~dests:[]));
  (* A valid chain: the root's line to 3, with 1 kept for 3's chain. *)
  let t =
    Tree.derive g ~prev
      ~fresh:[ (nodes.(3), (nodes.(2), lid 2 3)); (nodes.(2), (nodes.(1), lid 1 2)) ]
      ~dests:[ nodes.(3) ]
  in
  Alcotest.(check (list int)) "members" [ 0; 1; 2; 3 ] (Tree.members t);
  check_valid g t ~dests:[ nodes.(3) ]

(* ------------------------------------------------------------------ *)
(* Kernel scratch                                                      *)
(* ------------------------------------------------------------------ *)

(* Node-indexed state is reused across calls; none of it may leak from
   one call into the next. *)

let edges_of = Option.map Tree.edges

let test_rebuild_avoids_failed_link () =
  let f = Fabric.fat_tree ~k:4 ~gpus_per_host:2 () in
  let g = Fabric.graph f in
  let eps = Fabric.endpoints f in
  let source = eps.(0) and dests = [ eps.(5); eps.(9); eps.(20); eps.(31) ] in
  let t = expect_tree (Layer_peel.build g ~source ~dests) in
  let is_switch v = Graph.kind_is_switch (Graph.node g v).Graph.kind in
  let cut =
    List.find (fun (p, c, _) -> is_switch p && is_switch c) (Tree.edges t)
    |> fun (_, _, lid) -> lid
  in
  Graph.fail_link g cut;
  let t' = expect_tree (Layer_peel.build g ~source ~dests) in
  check_valid g t' ~dests;
  Alcotest.(check bool) "avoids the failed link" false (List.mem cut (Tree.link_ids t'));
  Graph.restore_all g;
  Alcotest.(check (option (list (triple int int int)))) "back to the first tree"
    (Some (Tree.edges t)) (edges_of (Layer_peel.build g ~source ~dests))

let test_build_after_unpeelable () =
  let f = Fabric.fat_tree ~k:4 ~gpus_per_host:2 () in
  let g = Fabric.graph f in
  let eps = Fabric.endpoints f in
  let source = eps.(0) and dests = [ eps.(6); eps.(17); eps.(30) ] in
  let want = edges_of (Layer_peel.build g ~source ~dests) in
  (* Dest [eps.(30)] on layer 1 has no lower-layer neighbour: the source
     is not adjacent.  The peel raises after the outer layers have
     filled the scratch. *)
  let layers = Graph.bfs_dist g source in
  layers.(eps.(30)) <- 1;
  Alcotest.(check bool) "not peelable" true
    (match Layer_peel.peel_general ~layers g ~source ~dests with
    | _ -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check (option (list (triple int int int)))) "next build" want
    (edges_of (Layer_peel.build g ~source ~dests));
  let salted = edges_of (Layer_peel.build ~salt:3 g ~source ~dests:(List.tl dests)) in
  Alcotest.(check bool) "salted build valid" true (salted <> None)

let test_domains_match_sequential () =
  let f = Fabric.fat_tree ~k:8 ~hosts_per_tor:4 ~gpus_per_host:2 () in
  let g = Fabric.graph f in
  let groups = pin_groups f ~seed:7 @ pin_groups f ~seed:8 in
  let run () =
    List.concat_map
      (fun (source, dests) ->
        [
          edges_of (Layer_peel.build g ~source ~dests);
          edges_of (Layer_peel.build ~salt:5 g ~source ~dests);
          Option.map (fun _ -> []) (Layer_peel.farthest_layer g ~source ~dests);
        ])
      groups
  in
  let want = run () in
  let domains = List.init 2 (fun _ -> Domain.spawn (fun () -> List.init 3 (fun _ -> run ()))) in
  List.iter
    (fun d ->
      List.iter
        (fun got -> Alcotest.(check bool) "same trees as sequential" true (got = want))
        (Domain.join d))
    domains

(* A pod-local build costs O(tree): its minor allocation stays far
   below the fabric's node count, and no node-sized state outlives the
   call. *)
let test_group_sized_build () =
  let f = Fabric.fat_tree ~k:64 ~hosts_per_tor:4 ~gpus_per_host:8 () in
  let g = Fabric.graph f in
  let n = Graph.num_nodes g in
  let gpus = Fabric.gpus f in
  let source = gpus.(0) and dests = List.init 63 (fun i -> gpus.(i + 1)) in
  let pod v = Fabric.pod_of_tor f (Fabric.attach_tor f v) in
  Alcotest.(check bool) "pod-local" true (List.for_all (fun d -> pod d = pod source) dests);
  Gc.full_major ();
  let live0 = (Gc.stat ()).Gc.live_words in
  let first = expect_tree (Layer_peel.build g ~source ~dests) in
  let w0 = Gc.minor_words () in
  let t = expect_tree (Layer_peel.build g ~source ~dests) in
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words < %d nodes" words n)
    true
    (words < float_of_int n);
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words < 100 per member" words)
    true
    (words < 100.0 *. float_of_int (Tree.cost t + 1));
  Alcotest.(check bool) "same tree" true (Tree.edges first = Tree.edges t);
  Gc.full_major ();
  let kept = (Gc.stat ()).Gc.live_words - live0 in
  Alcotest.(check bool)
    (Printf.sprintf "%d words kept < %d nodes" kept n)
    true (kept < n)

(* ------------------------------------------------------------------ *)
(* Planning memo: an association-list model and its allocation         *)
(* ------------------------------------------------------------------ *)

module Bitset = Peel_util.Bits.Bitset

(* Keys are (source in 0..2, a subset of four elements of a 12-wide
   universe): 48 keys, so a run of 200 operations repeats keys, fills
   small capacities and collides in the table.  Every [find] answer
   must be the model's, and so must the counters at the end.  Mutating
   a set after inserting it must not change what the memo stored. *)
let prop_memo_matches_model =
  QCheck.Test.make ~name:"memo: matches an association-list model" ~count:500
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let width = 12 and elements = [| 0; 5; 8; 11 |] in
      let set_of mask =
        let bs = Bitset.create width in
        Array.iteri (fun i e -> if mask land (1 lsl i) <> 0 then Bitset.add bs e) elements;
        bs
      in
      let capacity = if Rng.int rng 5 = 0 then 64 else 1 + Rng.int rng 8 in
      let memo = Memo.create ~capacity ~width () in
      let model = ref [] and hits = ref 0 and misses = ref 0 in
      (* every set ever inserted, still live and mutable *)
      let live = ref [||] in
      let find source bs =
        let got =
          match Memo.find memo ~source bs with
          | -1 -> None
          | i -> Some (Memo.get memo i)
        in
        let want = List.assoc_opt (source, Bitset.to_list bs) !model in
        if want = None then incr misses else incr hits;
        got = want
      in
      let step () =
        let source = Rng.int rng 3 in
        match Rng.int rng 7 with
        | 0 | 1 -> find source (set_of (Rng.int rng 16))
        | 2 when Array.length !live > 0 ->
            (* a lookup through a live, possibly mutated, set *)
            find source !live.(Rng.int rng (Array.length !live))
        | 3 when Array.length !live > 0 ->
            let bs = !live.(Rng.int rng (Array.length !live)) in
            let e = Rng.int rng width in
            if List.mem e (Bitset.to_list bs) then Bitset.remove bs e
            else Bitset.add bs e;
            true
        | _ ->
            let bs = set_of (Rng.int rng 16) and v = Rng.int rng 1000 in
            let key = (source, Bitset.to_list bs) in
            Memo.add memo ~source bs v;
            if List.length !model < capacity && not (List.mem_assoc key !model) then
              model := (key, v) :: !model;
            live := Array.append !live [| bs |];
            true
      in
      let ok = ref true in
      for _ = 1 to 200 do
        ok := step () && !ok
      done;
      !ok
      && Memo.hits memo = !hits
      && Memo.misses memo = !misses
      && Memo.length memo = List.length !model)

(* A hit allocates nothing, and an insertion allocates no key: only the
   columns' doubling growth, which stops once they have room.  Measured
   on a 2-core x86-64 host (OCaml 5.1): 0 minor words per hit and per
   insertion into columns with room, and 4.0 per insertion over the
   first 600 into a fresh memo, all of it growth from 8 to 1,024
   entries. *)
let test_memo_allocation () =
  let width = 44 in
  let keys =
    Array.init 1000 (fun i ->
        let bs = Bitset.create width in
        for b = 0 to 9 do
          if i land (1 lsl b) <> 0 then Bitset.add bs (4 * b)
        done;
        Bitset.add bs 43;
        bs)
  in
  let memo = Memo.create ~width () in
  let words f =
    let w0 = Gc.minor_words () in
    f ();
    Gc.minor_words () -. w0
  in
  (* Loops, not iterators: a closure over [memo] would allocate. *)
  let fresh =
    words (fun () ->
        for i = 0 to 599 do
          Memo.add memo ~source:7 keys.(i) i
        done)
  in
  let room =
    words (fun () ->
        for i = 600 to 999 do
          Memo.add memo ~source:7 keys.(i) i
        done)
  in
  let hit =
    words (fun () ->
        for i = 0 to 999 do
          ignore (Memo.find memo ~source:7 keys.(i))
        done)
  in
  Alcotest.(check int) "all inserted" 1000 (Memo.length memo);
  Alcotest.(check int) "all hit" 1000 (Memo.hits memo);
  Alcotest.(check (float 0.0)) "0 minor words over 1,000 hits" 0.0 hit;
  Alcotest.(check (float 0.0)) "0 minor words over 400 insertions with room" 0.0 room;
  Alcotest.(check bool)
    (Printf.sprintf "%.1f minor words per fresh insertion < 8" (fresh /. 600.0))
    true
    (fresh /. 600.0 < 8.0)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "peel_steiner"
    [
      ( "tree",
        [
          Alcotest.test_case "of_parents basic" `Quick test_tree_of_parents_basic;
          Alcotest.test_case "children" `Quick test_tree_children;
          Alcotest.test_case "rejects wrong link" `Quick test_tree_rejects_wrong_link;
          Alcotest.test_case "rejects orphan chain" `Quick test_tree_rejects_orphan_chain;
          Alcotest.test_case "rejects duplicate" `Quick test_tree_rejects_duplicate;
          Alcotest.test_case "rejects root parent" `Quick test_tree_rejects_root_parent;
          Alcotest.test_case "rejects cycle" `Quick test_tree_rejects_cycle;
          qt prop_tree_matches_model;
          Alcotest.test_case "validate down link" `Quick test_tree_validate_down_link;
          Alcotest.test_case "validate missing dest" `Quick test_tree_validate_missing_dest;
          Alcotest.test_case "derive rejects bad fresh bindings" `Quick test_derive_rejects;
          qt prop_derive_matches_pruned_union;
        ] );
      ( "kernel",
        [
          Alcotest.test_case "rebuild avoids a failed link" `Quick test_rebuild_avoids_failed_link;
          Alcotest.test_case "build after not peelable" `Quick test_build_after_unpeelable;
          Alcotest.test_case "two domains match sequential" `Quick test_domains_match_sequential;
          Alcotest.test_case "group-sized build at k=64" `Quick test_group_sized_build;
        ] );
      ("pinned", [ Alcotest.test_case "tree digests" `Quick test_trees_pinned ]);
      ( "memo",
        [
          qt prop_memo_matches_model;
          Alcotest.test_case "hits and insertions allocate no key" `Quick
            test_memo_allocation;
        ] );
      ( "exact",
        [
          Alcotest.test_case "two terminals" `Quick test_exact_two_terminals_is_distance;
          Alcotest.test_case "star" `Quick test_exact_star;
          Alcotest.test_case "trivial" `Quick test_exact_trivial;
          Alcotest.test_case "disconnected" `Quick test_exact_disconnected;
          Alcotest.test_case "too many terminals" `Quick test_exact_too_many_terminals;
          Alcotest.test_case "steiner point helps" `Quick test_exact_steiner_point_helps;
        ] );
      ( "symmetric",
        [
          Alcotest.test_case "leaf-spine = exact" `Quick test_symmetric_leaf_spine_matches_exact;
          Alcotest.test_case "fat-tree = exact" `Quick test_symmetric_fat_tree_matches_exact;
          Alcotest.test_case "same-host gpus" `Quick test_symmetric_same_host_gpus;
          Alcotest.test_case "cross-pod gpu" `Quick test_symmetric_cross_pod_gpu;
          Alcotest.test_case "source in dests" `Quick test_symmetric_source_in_dests_ignored;
          Alcotest.test_case "broadcast cost formula" `Quick test_symmetric_broadcast_cost_formula;
        ] );
      ( "layer_peel",
        [
          Alcotest.test_case "optimal in sym leaf-spine" `Quick
            test_peel_symmetric_equals_optimal_leaf_spine;
          Alcotest.test_case "optimal in sym fat-tree" `Quick
            test_peel_symmetric_equals_optimal_fat_tree;
          Alcotest.test_case "unreachable dest" `Quick test_peel_unreachable_dest;
          Alcotest.test_case "farthest layer" `Quick test_peel_farthest_layer;
          Alcotest.test_case "routes around failures" `Quick test_peel_paper_example_shape;
          Alcotest.test_case "deterministic" `Quick test_peel_deterministic;
          qt prop_peel_asymmetric;
          qt prop_peel_fat_tree_failures;
          qt prop_peel_symmetric_optimal;
          qt prop_peel_differential_min_bound;
          qt prop_peel_symmetric_optimal_fat_tree;
          qt prop_repeel_valid_and_splice;
          qt prop_repeel_identity_without_failures;
          qt prop_splice_differential;
        ] );
    ]
