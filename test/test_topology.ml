(* Tests for peel_topology: graph construction/traversal invariants,
   fat-tree and leaf-spine structure, failure injection. *)

open Peel_topology
module Rng = Peel_util.Rng

(* ------------------------------------------------------------------ *)
(* Graph basics                                                        *)
(* ------------------------------------------------------------------ *)

let tiny_graph () =
  (* s -- a -- b, plus s -- b direct. *)
  let b = Graph.Builder.create () in
  let s = Graph.Builder.add_node b Graph.Host ~pod:0 ~idx:0 in
  let a = Graph.Builder.add_node b Graph.Tor ~pod:0 ~idx:0 in
  let c = Graph.Builder.add_node b Graph.Host ~pod:0 ~idx:1 in
  let l_sa = Graph.Builder.add_duplex b ~bandwidth:1e9 s a in
  let l_ac = Graph.Builder.add_duplex b ~bandwidth:1e9 a c in
  let l_sc = Graph.Builder.add_duplex b ~bandwidth:1e9 s c in
  (Graph.Builder.finish b, s, a, c, l_sa, l_ac, l_sc)

let test_duplex_pairing () =
  let g, _, _, _, l_sa, _, _ = tiny_graph () in
  let fwd = Graph.link g l_sa and bwd = Graph.link g (Graph.peer_link l_sa) in
  Alcotest.(check int) "reverse src" fwd.Graph.dst bwd.Graph.src;
  Alcotest.(check int) "reverse dst" fwd.Graph.src bwd.Graph.dst;
  Alcotest.(check int) "peer is involutive" l_sa (Graph.peer_link (Graph.peer_link l_sa))

let test_bfs_dist () =
  let g, s, a, c, _, _, _ = tiny_graph () in
  let d = Graph.bfs_dist g s in
  Alcotest.(check int) "self" 0 d.(s);
  Alcotest.(check int) "a" 1 d.(a);
  Alcotest.(check int) "c direct" 1 d.(c)

let test_bfs_after_failure () =
  let g, s, _, c, _, _, l_sc = tiny_graph () in
  Graph.fail_link g l_sc;
  let d = Graph.bfs_dist g s in
  Alcotest.(check int) "c via a" 2 d.(c);
  Graph.restore_all g;
  let d = Graph.bfs_dist g s in
  Alcotest.(check int) "c direct again" 1 d.(c)

let test_unreachable () =
  let g, s, a, c, l_sa, l_ac, l_sc = tiny_graph () in
  ignore a;
  Graph.fail_link g l_sa;
  Graph.fail_link g l_sc;
  ignore l_ac;
  let d = Graph.bfs_dist g s in
  Alcotest.(check int) "c unreachable" Graph.unreachable d.(c);
  Alcotest.(check bool) "not connected" false (Graph.connected g [ s; c ]);
  Graph.restore_all g

let test_shortest_path () =
  let g, s, a, c, _, _, l_sc = tiny_graph () in
  (match Graph.shortest_path g s c with
  | Some p -> Alcotest.(check (list int)) "direct" [ s; c ] p
  | None -> Alcotest.fail "expected path");
  Graph.fail_link g l_sc;
  (match Graph.shortest_path g s c with
  | Some p -> Alcotest.(check (list int)) "via a" [ s; a; c ] p
  | None -> Alcotest.fail "expected path")

let test_hop_layers () =
  let g, s, a, c, _, _, l_sc = tiny_graph () in
  Graph.fail_link g l_sc;
  let layers = Graph.hop_layers g s in
  Alcotest.(check int) "3 layers" 3 (Array.length layers);
  Alcotest.(check (list int)) "layer0" [ s ] layers.(0);
  Alcotest.(check (list int)) "layer1" [ a ] layers.(1);
  Alcotest.(check (list int)) "layer2" [ c ] layers.(2)

let test_link_between () =
  let g, s, _, c, _, _, l_sc = tiny_graph () in
  (match Graph.link_between g s c with
  | Some l -> Alcotest.(check int) "found direct" l_sc l
  | None -> Alcotest.fail "expected link");
  Graph.fail_link g l_sc;
  Alcotest.(check bool) "down link invisible" true (Graph.link_between g s c = None)

let test_self_loop_rejected () =
  let b = Graph.Builder.create () in
  let s = Graph.Builder.add_node b Graph.Host ~pod:0 ~idx:0 in
  Alcotest.check_raises "self loop"
    (Invalid_argument "Graph.Builder.add_duplex: self-loop") (fun () ->
      ignore (Graph.Builder.add_duplex b ~bandwidth:1.0 s s))

(* NaN, infinite or negative link parameters fail where they enter,
   naming the parameter; zero bandwidth stays constructible (SIM001
   reports it). *)
let test_link_parameters_rejected () =
  let b = Graph.Builder.create () in
  let s = Graph.Builder.add_node b Graph.Host ~pod:0 ~idx:0 in
  let c = Graph.Builder.add_node b Graph.Tor ~pod:0 ~idx:0 in
  let bw_msg = "Graph.Builder.add_duplex: bandwidth must be finite and >= 0" in
  let lat_msg = "Graph.Builder.add_duplex: latency must be finite and >= 0" in
  List.iter
    (fun bandwidth ->
      Alcotest.check_raises (Printf.sprintf "bandwidth %g" bandwidth)
        (Invalid_argument bw_msg) (fun () ->
          ignore (Graph.Builder.add_duplex b ~bandwidth s c)))
    [ Float.nan; -1.0; Float.infinity ];
  List.iter
    (fun latency ->
      Alcotest.check_raises (Printf.sprintf "latency %g" latency)
        (Invalid_argument lat_msg) (fun () ->
          ignore (Graph.Builder.add_duplex b ~latency ~bandwidth:1.0 s c)))
    [ Float.nan; -1e-9; Float.infinity ];
  ignore (Graph.Builder.add_duplex b ~latency:0.0 ~bandwidth:0.0 s c)

let test_fail_random_rejects_nan () =
  let f = Fabric.fat_tree ~k:4 () in
  Alcotest.check_raises "fraction nan"
    (Invalid_argument "Fabric.fail_random: fraction in [0,1]") (fun () ->
      ignore
        (Fabric.fail_random f ~rng:(Peel_util.Rng.create 1) ~tier:`All
           ~fraction:Float.nan ()));
  Alcotest.(check int) "nothing failed" 0
    (Array.fold_left
       (fun acc (l : Graph.link) -> if l.Graph.up then acc else acc + 1)
       0
       (Graph.links (Fabric.graph f)))

(* ------------------------------------------------------------------ *)
(* Fat-tree structure                                                  *)
(* ------------------------------------------------------------------ *)

let test_fat_tree_counts () =
  let f = Fat_tree.create ~k:4 () in
  Alcotest.(check int) "pods" 4 f.Fat_tree.pods;
  Alcotest.(check int) "tors" 8 (Array.length f.Fat_tree.tors);
  Alcotest.(check int) "aggs" 8 (Array.length f.Fat_tree.aggs);
  Alcotest.(check int) "cores" 4 (Array.length f.Fat_tree.cores);
  Alcotest.(check int) "hosts" 16 (Fat_tree.num_hosts f);
  Alcotest.(check int) "gpus" 0 (Fat_tree.num_gpus f)

let test_fat_tree_k8_paper_config () =
  (* The paper's Fig. 5 fabric: 8-ary, 4 servers/ToR, 8 GPUs/server. *)
  let f = Fat_tree.create ~k:8 ~hosts_per_tor:4 ~gpus_per_host:8 () in
  Alcotest.(check int) "hosts" 128 (Fat_tree.num_hosts f);
  Alcotest.(check int) "gpus" 1024 (Fat_tree.num_gpus f)

let test_fat_tree_degrees () =
  let f = Fat_tree.create ~k:4 () in
  let g = f.Fat_tree.graph in
  (* Every ToR: k/2 aggs + hosts_per_tor hosts = 4 out-links for k=4. *)
  Array.iter
    (fun tor ->
      Alcotest.(check int) "tor degree" 4 (Array.length (Graph.out_links g tor)))
    f.Fat_tree.tors;
  (* Every agg: k/2 tors + k/2 cores. *)
  Array.iter
    (fun agg ->
      Alcotest.(check int) "agg degree" 4 (Array.length (Graph.out_links g agg)))
    f.Fat_tree.aggs;
  (* Every core: one link per pod. *)
  Array.iter
    (fun core ->
      Alcotest.(check int) "core degree" 4 (Array.length (Graph.out_links g core)))
    f.Fat_tree.cores

let test_fat_tree_distances () =
  let f = Fat_tree.create ~k:4 () in
  let g = f.Fat_tree.graph in
  let h0 = f.Fat_tree.hosts.(0) in
  let d = Graph.bfs_dist g h0 in
  (* Same-ToR host: 2 hops (up to ToR, down). *)
  let same_tor = f.Fat_tree.hosts_of_tor.(0).(1) in
  Alcotest.(check int) "same ToR" 2 d.(same_tor);
  (* Same-pod different ToR: 4 hops. *)
  let same_pod = f.Fat_tree.hosts_of_tor.(1).(0) in
  Alcotest.(check int) "same pod" 4 d.(same_pod);
  (* Cross-pod: 6 hops. *)
  let cross_pod = f.Fat_tree.hosts_of_tor.(2).(0) in
  Alcotest.(check int) "cross pod" 6 d.(cross_pod)

let test_fat_tree_gpu_distances () =
  let f = Fat_tree.create ~k:4 ~gpus_per_host:2 () in
  let g = f.Fat_tree.graph in
  let gpu0 = f.Fat_tree.gpus.(0) in
  let d = Graph.bfs_dist g gpu0 in
  (* Sibling GPU on the same host: 2 hops via the host. *)
  let sibling = f.Fat_tree.gpus_of_host.(0).(1) in
  Alcotest.(check int) "sibling gpu" 2 d.(sibling);
  (* Cross-pod GPU via dedicated NICs: tor-agg-core-agg-tor = 6 hops. *)
  let far_host_pos = Array.length f.Fat_tree.hosts - 1 in
  let far = f.Fat_tree.gpus_of_host.(far_host_pos).(0) in
  Alcotest.(check int) "far gpu" 6 d.(far)

let test_fat_tree_tor_of_host () =
  let f = Fat_tree.create ~k:4 () in
  Array.iteri
    (fun ti hs ->
      Array.iter
        (fun h ->
          Alcotest.(check int) "tor_of_host" f.Fat_tree.tors.(ti)
            f.Fat_tree.tor_of_host.(h))
        hs)
    f.Fat_tree.hosts_of_tor

let test_fat_tree_invalid_k () =
  Alcotest.check_raises "odd k"
    (Invalid_argument "Fat_tree.create: k must be even and >= 2") (fun () ->
      ignore (Fat_tree.create ~k:3 ()))

let test_fat_tree_failure_domains () =
  let f = Fat_tree.create ~k:4 () in
  let tor_up = Fat_tree.fabric_duplex_links f `Tor_up in
  let agg_up = Fat_tree.fabric_duplex_links f `Agg_up in
  let all = Fat_tree.fabric_duplex_links f `All in
  (* k=4: 4 pods x (2 tors x 2 aggs) = 16 tor-agg cables; same agg-core. *)
  Alcotest.(check int) "tor-agg cables" 16 (Array.length tor_up);
  Alcotest.(check int) "agg-core cables" 16 (Array.length agg_up);
  Alcotest.(check int) "all fabric cables" 32 (Array.length all)

(* Property: in a healthy fat-tree every host pair is connected and at
   even distance (up/down through layers). *)
let prop_fat_tree_host_distances =
  QCheck.Test.make ~name:"fat-tree host distances even and bounded" ~count:20
    QCheck.(pair (int_range 0 100) (int_range 0 100))
    (fun (i, j) ->
      let f = Fat_tree.create ~k:4 () in
      let hosts = f.Fat_tree.hosts in
      let a = hosts.(i mod Array.length hosts)
      and b = hosts.(j mod Array.length hosts) in
      let d = (Graph.bfs_dist f.Fat_tree.graph a).(b) in
      if a = b then d = 0 else d mod 2 = 0 && d >= 2 && d <= 6)

(* ------------------------------------------------------------------ *)
(* Leaf-spine structure                                                *)
(* ------------------------------------------------------------------ *)

let test_leaf_spine_counts () =
  let l = Leaf_spine.create ~spines:16 ~leaves:48 ~hosts_per_leaf:2 ~gpus_per_host:8 () in
  Alcotest.(check int) "spines" 16 (Array.length l.Leaf_spine.spines);
  Alcotest.(check int) "leaves" 48 (Array.length l.Leaf_spine.leaves);
  Alcotest.(check int) "hosts" 96 (Leaf_spine.num_hosts l);
  Alcotest.(check int) "gpus" 768 (Leaf_spine.num_gpus l);
  Alcotest.(check int) "spine-leaf cables" (16 * 48)
    (Array.length (Leaf_spine.spine_leaf_duplex_links l))

let test_leaf_spine_distances () =
  let l = Leaf_spine.create ~spines:2 ~leaves:2 ~hosts_per_leaf:4 () in
  let g = l.Leaf_spine.graph in
  let h0 = l.Leaf_spine.hosts.(0) in
  let d = Graph.bfs_dist g h0 in
  let same_leaf = l.Leaf_spine.hosts_of_leaf.(0).(1) in
  let other_leaf = l.Leaf_spine.hosts_of_leaf.(1).(0) in
  Alcotest.(check int) "same leaf" 2 d.(same_leaf);
  Alcotest.(check int) "other leaf" 4 d.(other_leaf)

let test_leaf_spine_full_bipartite () =
  let l = Leaf_spine.create ~spines:3 ~leaves:5 ~hosts_per_leaf:1 () in
  let g = l.Leaf_spine.graph in
  Array.iter
    (fun leaf ->
      Array.iter
        (fun spine ->
          Alcotest.(check bool) "leaf-spine link" true
            (Graph.link_between g leaf spine <> None))
        l.Leaf_spine.spines)
    l.Leaf_spine.leaves

(* ------------------------------------------------------------------ *)
(* Rail-optimized topology                                             *)
(* ------------------------------------------------------------------ *)

let test_rail_counts () =
  let r = Rail.create ~rails:8 ~groups:4 ~servers_per_group:16 ~spines:8 () in
  Alcotest.(check int) "tors" 32 (Array.length r.Rail.tors);
  Alcotest.(check int) "spines" 8 (Array.length r.Rail.spines);
  Alcotest.(check int) "hosts" 64 (Array.length r.Rail.hosts);
  Alcotest.(check int) "gpus" 512 (Rail.num_gpus r);
  Alcotest.(check int) "spine-tor cables" (32 * 8)
    (Array.length (Rail.spine_tor_duplex_links r))

let test_rail_same_rail_distance () =
  let r = Rail.create ~rails:4 ~groups:2 ~servers_per_group:4 ~spines:2 () in
  let g = r.Rail.graph in
  (* GPU 0 of server 0 and GPU 0 of server 1 (same group, same rail):
     2 hops through the shared rail ToR. *)
  let a = r.Rail.gpus_of_host.(0).(0) and b = r.Rail.gpus_of_host.(1).(0) in
  Alcotest.(check int) "same rail" 2 (Graph.bfs_dist g a).(b);
  (* Different rails, same server: 2 hops via NVSwitch. *)
  let c = r.Rail.gpus_of_host.(0).(1) in
  Alcotest.(check int) "cross rail same server" 2 (Graph.bfs_dist g a).(c);
  (* Different rails, different servers: NVSwitch hop + rail, or
     tor-spine-tor: 4 hops. *)
  let d = r.Rail.gpus_of_host.(1).(1) in
  Alcotest.(check int) "cross rail cross server" 4 (Graph.bfs_dist g a).(d)

let test_rail_fabric_facade () =
  let f = Fabric.rail ~rails:4 ~groups:2 ~servers_per_group:4 ~spines:2 () in
  Alcotest.(check int) "one pod" 1 (Fabric.pods f);
  Alcotest.(check int) "tors per pod" 8 (Fabric.tors_per_pod f);
  Alcotest.(check int) "endpoints" 32 (Array.length (Fabric.endpoints f));
  let gpu0 = (Fabric.gpus f).(0) in
  let tor = Fabric.attach_tor f gpu0 in
  Alcotest.(check int) "gpu0 on rail tor 0" (Fabric.tors f).(0) tor

let test_rail_gpu_rail_mapping () =
  let f = Fabric.rail ~rails:4 ~groups:2 ~servers_per_group:4 ~spines:2 () in
  (match f with
  | Fabric.Rl r ->
      (* GPU r of any server in group g attaches to tor g*rails + r. *)
      Array.iteri
        (fun hi ghost ->
          let group = hi / 4 in
          Array.iteri
            (fun rail gpu ->
              Alcotest.(check int) "rail tor"
                r.Rail.tors.((group * 4) + rail)
                (Fabric.attach_tor f gpu))
            ghost)
        r.Rail.gpus_of_host
  | _ -> Alcotest.fail "expected rail fabric")

(* ------------------------------------------------------------------ *)
(* Fabric facade + failures                                            *)
(* ------------------------------------------------------------------ *)

let test_fabric_endpoints () =
  let ft = Fabric.fat_tree ~k:4 ~gpus_per_host:2 () in
  Alcotest.(check int) "gpu endpoints" 32 (Array.length (Fabric.endpoints ft));
  let ft_nog = Fabric.fat_tree ~k:4 () in
  Alcotest.(check int) "host endpoints" 16 (Array.length (Fabric.endpoints ft_nog))

let test_fabric_attach_tor () =
  let ft = Fabric.fat_tree ~k:4 ~gpus_per_host:2 () in
  let gpu0 = (Fabric.gpus ft).(0) in
  let host0 = Fabric.host_of_gpu ft gpu0 in
  let tor_of_host0 =
    match ft with Fabric.Ft t -> t.Fat_tree.tor_of_host.(host0) | _ -> assert false
  in
  Alcotest.(check int) "gpu -> host -> tor" tor_of_host0 (Fabric.attach_tor ft gpu0)

let test_fabric_pods () =
  let ft = Fabric.fat_tree ~k:8 () in
  Alcotest.(check int) "pods" 8 (Fabric.pods ft);
  Alcotest.(check int) "tors/pod" 4 (Fabric.tors_per_pod ft);
  let ls = Fabric.leaf_spine ~spines:4 ~leaves:6 ~hosts_per_leaf:2 () in
  Alcotest.(check int) "ls pods" 1 (Fabric.pods ls);
  Alcotest.(check int) "ls tors/pod" 6 (Fabric.tors_per_pod ls)

let test_fabric_tor_idx () =
  let ft = Fabric.fat_tree ~k:4 () in
  Array.iteri
    (fun p tors ->
      Array.iteri
        (fun i tor ->
          Alcotest.(check int) "pod" p (Fabric.pod_of_tor ft tor);
          Alcotest.(check int) "idx" i (Fabric.tor_idx_in_pod ft tor))
        tors)
    (Array.init (Fabric.pods ft) (Fabric.tors_of_pod ft))

let test_fail_random_count () =
  let ls = Fabric.leaf_spine ~spines:16 ~leaves:48 ~hosts_per_leaf:2 () in
  let rng = Rng.create 99 in
  let failed = Fabric.fail_random ls ~rng ~tier:`All ~fraction:0.1 () in
  Alcotest.(check int) "10% of 768" 77 (List.length failed);
  let g = Fabric.graph ls in
  List.iter
    (fun id -> Alcotest.(check bool) "down" false (Graph.link_up g id))
    failed;
  Alcotest.(check bool) "hosts still connected" true
    (Graph.connected g (Array.to_list (Fabric.hosts ls)))

let test_fail_random_zero () =
  let ls = Fabric.leaf_spine ~spines:2 ~leaves:2 ~hosts_per_leaf:1 () in
  let rng = Rng.create 1 in
  let failed = Fabric.fail_random ls ~rng ~tier:`All ~fraction:0.0 () in
  Alcotest.(check int) "none failed" 0 (List.length failed)

let test_fail_random_deterministic () =
  let run seed =
    let ls = Fabric.leaf_spine ~spines:8 ~leaves:8 ~hosts_per_leaf:1 () in
    Fabric.fail_random ls ~rng:(Rng.create seed) ~tier:`All ~fraction:0.2 ()
  in
  Alcotest.(check (list int)) "same seed, same failures" (run 5) (run 5)

let test_fail_recover_round_trip () =
  (* fail_link + recover_link must restore the graph bit-for-bit:
     same up flags, same adjacency. *)
  let ls = Fabric.leaf_spine ~spines:3 ~leaves:4 ~hosts_per_leaf:2 () in
  let g = Fabric.graph ls in
  let snapshot () =
    ( Array.map (fun (l : Graph.link) -> l.Graph.up) (Graph.links g),
      Array.init (Graph.num_nodes g) (fun v ->
          Array.to_list (Graph.out_links g v)) )
  in
  let before = snapshot () in
  let victim =
    match ls with
    | Fabric.Ls t -> (Leaf_spine.spine_leaf_duplex_links t).(0)
    | _ -> assert false
  in
  Graph.fail_link g victim;
  Alcotest.(check bool) "down" false (Graph.link_up g victim);
  Alcotest.(check bool) "peer down" false
    (Graph.link_up g (Graph.peer_link victim));
  Graph.recover_link g victim;
  let after = snapshot () in
  Alcotest.(check bool) "up flags restored" true (fst before = fst after);
  Alcotest.(check bool) "adjacency untouched" true (snd before = snd after)

(* Returned duplex ids are actually down (both directions), and their
   endpoints stay mutually reachable over the surviving links.  The
   fraction is kept below [1/leaves] of the links so no spine can lose
   its whole uplink set; the connectivity guarantee covers the rest. *)
let prop_fail_random_down_and_endpoints_reachable =
  QCheck.Test.make ~name:"fail_random: ids down, endpoints still reachable"
    ~count:30
    QCheck.(pair (int_range 0 10000) (int_range 1 15))
    (fun (seed, pct) ->
      let ls = Fabric.leaf_spine ~spines:4 ~leaves:8 ~hosts_per_leaf:1 () in
      let g = Fabric.graph ls in
      let failed =
        Fabric.fail_random ls ~rng:(Rng.create seed) ~tier:`All
          ~fraction:(float_of_int pct /. 100.0)
          ()
      in
      List.for_all
        (fun id ->
          let l = Graph.link g id in
          (not (Graph.link_up g id))
          && (not (Graph.link_up g (Graph.peer_link id)))
          && Graph.connected g [ l.Graph.src; l.Graph.dst ])
        failed)

(* Repeated draws never resurrect previously failed links: earlier
   victims stay down (a failed retry must only restore its own picks),
   and later draws never re-pick a down link. *)
let prop_fail_random_never_resurrects =
  QCheck.Test.make ~name:"fail_random never resurrects earlier failures"
    ~count:30
    QCheck.(int_range 0 10000)
    (fun seed ->
      let ls = Fabric.leaf_spine ~spines:4 ~leaves:8 ~hosts_per_leaf:1 () in
      let g = Fabric.graph ls in
      let rng = Rng.create seed in
      let first = Fabric.fail_random ls ~rng ~tier:`All ~fraction:0.08 () in
      let second = Fabric.fail_random ls ~rng ~tier:`All ~fraction:0.08 () in
      List.for_all (fun id -> not (Graph.link_up g id)) first
      && List.for_all (fun id -> not (List.mem id first)) second)

let prop_fail_random_keeps_hosts_connected =
  QCheck.Test.make ~name:"fail_random preserves host connectivity" ~count:25
    QCheck.(pair (int_range 0 10000) (int_range 1 10))
    (fun (seed, pct) ->
      let ls = Fabric.leaf_spine ~spines:4 ~leaves:6 ~hosts_per_leaf:2 () in
      let rng = Rng.create seed in
      let _ =
        Fabric.fail_random ls ~rng ~tier:`All
          ~fraction:(float_of_int pct /. 100.0)
          ()
      in
      Graph.connected (Fabric.graph ls) (Array.to_list (Fabric.hosts ls)))

(* bfs_reach is exact where the path walks look: at [dst] and on every
   node closer than it, whether the search started afresh, resumed the
   same source or restarted from a new one.  Labels it wrote beyond
   that are exact too. *)
let prop_bfs_reach_matches_bfs_dist =
  QCheck.Test.make ~name:"bfs_reach labels = bfs_dist below dst" ~count:60
    QCheck.(
      triple (int_range 0 10000) (int_range 0 10)
        (list_of_size Gen.(int_range 1 40) (triple bool (int_range 0 100000) (int_range 0 100000))))
    (fun (seed, pct, queries) ->
      let f = Fabric.fat_tree ~k:4 ~hosts_per_tor:2 ~gpus_per_host:2 () in
      let g = Fabric.graph f in
      ignore
        (Fabric.fail_random f ~rng:(Rng.create seed) ~tier:`All
           ~fraction:(float_of_int pct /. 100.0) ());
      let n = Graph.num_nodes g in
      let b = Graph.bfs_create g in
      let src = ref 0 in
      List.for_all
        (fun (keep, s, d) ->
          if not keep then src := s mod n;
          let dst = d mod n in
          let full = Graph.bfs_dist g !src in
          let reach = Graph.bfs_reach b ~src:!src ~dst in
          let ok = ref (reach.(dst) = full.(dst)) in
          Array.iteri
            (fun v dv ->
              if dv < full.(dst) || reach.(v) <> Graph.unreachable then
                ok := !ok && reach.(v) = dv)
            full;
          !ok)
        queries)

let test_bfs_reach_stops_early () =
  (* On a k=8 fat-tree a ToR-local pair is settled long before the
     search reaches the other pods. *)
  let f = Fat_tree.create ~k:8 () in
  let g = f.Fat_tree.graph in
  let h0 = f.Fat_tree.hosts.(0) in
  let near = f.Fat_tree.hosts_of_tor.(0).(1) in
  let far = f.Fat_tree.hosts.(Array.length f.Fat_tree.hosts - 1) in
  let b = Graph.bfs_create g in
  let d = Graph.bfs_reach b ~src:h0 ~dst:near in
  Alcotest.(check int) "dst labelled" 2 d.(near);
  Alcotest.(check int) "far pod untouched" Graph.unreachable d.(far);
  (* Resuming the same source reaches further without losing labels. *)
  let d = Graph.bfs_reach b ~src:h0 ~dst:far in
  Alcotest.(check int) "far pod reached" 6 d.(far);
  Alcotest.(check int) "near label kept" 2 d.(near);
  (* A new source clears the old labels. *)
  let d = Graph.bfs_reach b ~src:near ~dst:h0 in
  Alcotest.(check int) "restarted" 0 d.(near);
  Alcotest.(check int) "old labels cleared" Graph.unreachable d.(far);
  Alcotest.check_raises "bad destination" (Invalid_argument "Graph.bfs_reach: bad destination")
    (fun () -> ignore (Graph.bfs_reach b ~src:0 ~dst:(Graph.num_nodes g)));
  Graph.bfs_reset b;
  Alcotest.check_raises "bad source on an idle scratch" (Invalid_argument "Graph.bfs: bad source")
    (fun () -> ignore (Graph.bfs_reach b ~src:(-1) ~dst:0))

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "peel_topology"
    [
      ( "graph",
        [
          Alcotest.test_case "duplex pairing" `Quick test_duplex_pairing;
          Alcotest.test_case "bfs distances" `Quick test_bfs_dist;
          Alcotest.test_case "bfs after failure" `Quick test_bfs_after_failure;
          Alcotest.test_case "unreachable" `Quick test_unreachable;
          Alcotest.test_case "shortest path" `Quick test_shortest_path;
          Alcotest.test_case "hop layers" `Quick test_hop_layers;
          Alcotest.test_case "link_between" `Quick test_link_between;
          Alcotest.test_case "self loop rejected" `Quick test_self_loop_rejected;
          Alcotest.test_case "link parameters rejected" `Quick
            test_link_parameters_rejected;
          Alcotest.test_case "fail_random rejects NaN" `Quick test_fail_random_rejects_nan;
          Alcotest.test_case "bfs_reach stops early" `Quick test_bfs_reach_stops_early;
          qt prop_bfs_reach_matches_bfs_dist;
        ] );
      ( "fat_tree",
        [
          Alcotest.test_case "counts k=4" `Quick test_fat_tree_counts;
          Alcotest.test_case "paper config k=8" `Quick test_fat_tree_k8_paper_config;
          Alcotest.test_case "degrees" `Quick test_fat_tree_degrees;
          Alcotest.test_case "host distances" `Quick test_fat_tree_distances;
          Alcotest.test_case "gpu distances" `Quick test_fat_tree_gpu_distances;
          Alcotest.test_case "tor_of_host" `Quick test_fat_tree_tor_of_host;
          Alcotest.test_case "invalid k" `Quick test_fat_tree_invalid_k;
          Alcotest.test_case "failure domains" `Quick test_fat_tree_failure_domains;
          qt prop_fat_tree_host_distances;
        ] );
      ( "leaf_spine",
        [
          Alcotest.test_case "counts (paper fig7)" `Quick test_leaf_spine_counts;
          Alcotest.test_case "distances" `Quick test_leaf_spine_distances;
          Alcotest.test_case "full bipartite" `Quick test_leaf_spine_full_bipartite;
        ] );
      ( "rail",
        [
          Alcotest.test_case "counts" `Quick test_rail_counts;
          Alcotest.test_case "distances" `Quick test_rail_same_rail_distance;
          Alcotest.test_case "facade" `Quick test_rail_fabric_facade;
          Alcotest.test_case "gpu-rail mapping" `Quick test_rail_gpu_rail_mapping;
        ] );
      ( "fabric",
        [
          Alcotest.test_case "endpoints" `Quick test_fabric_endpoints;
          Alcotest.test_case "attach tor" `Quick test_fabric_attach_tor;
          Alcotest.test_case "pods" `Quick test_fabric_pods;
          Alcotest.test_case "tor idx" `Quick test_fabric_tor_idx;
          Alcotest.test_case "fail_random count" `Quick test_fail_random_count;
          Alcotest.test_case "fail_random zero" `Quick test_fail_random_zero;
          Alcotest.test_case "fail_random deterministic" `Quick test_fail_random_deterministic;
          Alcotest.test_case "fail/recover round trip" `Quick
            test_fail_recover_round_trip;
          qt prop_fail_random_keeps_hosts_connected;
          qt prop_fail_random_down_and_endpoints_reachable;
          qt prop_fail_random_never_resurrects;
        ] );
    ]
