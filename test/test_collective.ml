(* Tests for peel_collective: end-to-end broadcast execution for all six
   schemes, relative performance invariants the paper predicts, and the
   DCQCN guard-timer effect. *)

open Peel_topology
open Peel_workload
open Peel_collective
module Rng = Peel_util.Rng

let fat4 () = Fabric.fat_tree ~k:4 ~hosts_per_tor:2 ~gpus_per_host:4 ()

let one_broadcast fabric ~scale ~bytes ~seed =
  let rng = Rng.create seed in
  let members = Spec.place fabric rng ~scale () in
  let source = List.hd members in
  {
    Spec.id = 0;
    arrival = 0.0;
    source;
    dests = List.filter (fun m -> m <> source) members;
    members;
    bytes;
  }

let run_one fabric scheme spec =
  let out = Runner.run fabric scheme [ spec ] in
  match out.Runner.ccts with
  | [ cct ] -> cct
  | _ -> Alcotest.fail "expected one CCT"

(* ------------------------------------------------------------------ *)
(* Basic execution                                                     *)
(* ------------------------------------------------------------------ *)

let test_all_schemes_complete () =
  let f = fat4 () in
  let spec = one_broadcast f ~scale:16 ~bytes:1e6 ~seed:1 in
  List.iter
    (fun scheme ->
      let cct = run_one f scheme spec in
      Alcotest.(check bool)
        (Scheme.to_string scheme ^ " positive CCT")
        true
        (cct > 0.0 && Float.is_finite cct))
    Scheme.all

let test_deterministic_rerun () =
  let f = fat4 () in
  let spec = one_broadcast f ~scale:16 ~bytes:4e6 ~seed:2 in
  List.iter
    (fun scheme ->
      let a = run_one f scheme spec and b = run_one f scheme spec in
      Alcotest.(check (float 0.0)) (Scheme.to_string scheme ^ " reproducible") a b)
    Scheme.all

let test_empty_dests_completes_instantly () =
  let f = fat4 () in
  let eps = Fabric.endpoints f in
  let spec =
    {
      Spec.id = 0;
      arrival = 1.0;
      source = eps.(0);
      dests = [];
      members = [ eps.(0) ];
      bytes = 1e6;
    }
  in
  Alcotest.(check (float 0.0)) "zero CCT" 0.0 (run_one f Scheme.Optimal spec)

(* ------------------------------------------------------------------ *)
(* Paper-shaped relative performance (single collective, no load)      *)
(* ------------------------------------------------------------------ *)

let test_multicast_beats_unicast () =
  let f = fat4 () in
  let spec = one_broadcast f ~scale:32 ~bytes:8e6 ~seed:3 in
  let opt = run_one f Scheme.Optimal spec in
  let ring = run_one f Scheme.Ring spec in
  let tree = run_one f Scheme.Btree spec in
  Alcotest.(check bool) "optimal < ring" true (opt < ring);
  Alcotest.(check bool) "optimal < tree" true (opt < tree)

let test_peel_close_to_optimal () =
  let f = fat4 () in
  let spec = one_broadcast f ~scale:32 ~bytes:8e6 ~seed:4 in
  let opt = run_one f Scheme.Optimal spec in
  let peel = run_one f Scheme.Peel spec in
  Alcotest.(check bool) "peel >= optimal" true (peel >= opt -. 1e-12);
  Alcotest.(check bool) "peel within 2x of optimal" true (peel <= 2.0 *. opt)

let test_orca_pays_setup_delay () =
  let f = fat4 () in
  (* Small message: controller setup (~10 ms) dominates transfers. *)
  let spec = one_broadcast f ~scale:16 ~bytes:1e6 ~seed:5 in
  let opt = run_one f Scheme.Optimal spec in
  let orca = run_one f Scheme.Orca spec in
  Alcotest.(check bool) "orca >> optimal on small messages" true
    (orca > opt +. 1e-3)

let test_peel_no_setup_delay () =
  let f = fat4 () in
  let spec = one_broadcast f ~scale:16 ~bytes:1e6 ~seed:6 in
  let peel = run_one f Scheme.Peel spec in
  (* 1 MB over 100 Gbps fabric: well under a millisecond. *)
  Alcotest.(check bool) "peel starts immediately" true (peel < 2e-3)

let test_peel_prog_cores_between () =
  let f = fat4 () in
  (* Large message: the refinement kicks in mid-flight. *)
  let spec = one_broadcast f ~scale:32 ~bytes:256e6 ~seed:7 in
  let peel = run_one f Scheme.Peel spec in
  let prog = run_one f Scheme.Peel_prog_cores spec in
  let opt = run_one f Scheme.Optimal spec in
  Alcotest.(check bool) "prog >= optimal" true (prog >= opt -. 1e-12);
  Alcotest.(check bool) "prog <= peel + eps" true (prog <= peel +. 1e-6)

let test_ring_scales_linearly_tree_logarithmically () =
  (* Ring CCT grows roughly linearly in member count; at identical size
     the 64-member ring should be much slower than the 16-member one. *)
  let f = Fabric.fat_tree ~k:4 ~hosts_per_tor:4 ~gpus_per_host:4 () in
  let small = one_broadcast f ~scale:16 ~bytes:8e6 ~seed:8 in
  let big = one_broadcast f ~scale:64 ~bytes:8e6 ~seed:8 in
  let r16 = run_one f Scheme.Ring small in
  let r64 = run_one f Scheme.Ring big in
  Alcotest.(check bool) "ring grows superlinearly-ish" true (r64 > 1.5 *. r16);
  let o16 = run_one f Scheme.Optimal small in
  let o64 = run_one f Scheme.Optimal big in
  Alcotest.(check bool) "optimal is scale-insensitive" true (o64 < 2.0 *. o16)

(* ------------------------------------------------------------------ *)
(* Workload runs                                                       *)
(* ------------------------------------------------------------------ *)

let test_workload_all_complete () =
  let f = fat4 () in
  let rng = Rng.create 11 in
  let cs = Spec.poisson_broadcasts f rng ~n:20 ~scale:16 ~bytes:1e6 ~load:0.3 () in
  let out = Runner.run f Scheme.Peel cs in
  Alcotest.(check int) "20 CCTs" 20 (List.length out.Runner.ccts);
  List.iter
    (fun c -> Alcotest.(check bool) "finite" true (Float.is_finite c && c > 0.0))
    out.Runner.ccts;
  Alcotest.(check bool) "events counted" true (out.Runner.events > 0)

let test_load_inflates_tail () =
  (* The same workload at higher offered load must not finish faster on
     average. *)
  let f = fat4 () in
  let run load seed =
    let rng = Rng.create seed in
    let cs = Spec.poisson_broadcasts f rng ~n:30 ~scale:32 ~bytes:8e6 ~load () in
    (Runner.summarize (Runner.run f Scheme.Ring cs)).Peel_util.Stats.mean
  in
  let light = run 0.05 21 in
  let heavy = run 0.9 21 in
  Alcotest.(check bool) "heavier load is slower" true (heavy >= light *. 0.99)

(* ------------------------------------------------------------------ *)
(* Guard timer (paper: 12x p99 improvement for 64-GPU 32 MB broadcast)  *)
(* ------------------------------------------------------------------ *)

let test_guard_timer_improves_cct () =
  let f = Fabric.fat_tree ~k:4 ~hosts_per_tor:4 ~gpus_per_host:4 () in
  let rng = Rng.create 31 in
  (* Enough load that queues form and chunks get marked. *)
  let cs = Spec.poisson_broadcasts f rng ~n:15 ~scale:64 ~bytes:32e6 ~load:0.6 () in
  let run guard =
    let cc = Broadcast.Dcqcn { guard; ecn_delay = 10e-6 } in
    Runner.summarize (Runner.run ~cc f Scheme.Peel cs)
  in
  let with_guard = run (Some 50e-6) in
  let without = run None in
  Alcotest.(check bool) "guard lowers p99" true
    (with_guard.Peel_util.Stats.p99 < without.Peel_util.Stats.p99);
  Alcotest.(check bool) "guard lowers mean" true
    (with_guard.Peel_util.Stats.mean < without.Peel_util.Stats.mean)

let test_cc_noop_when_uncongested () =
  (* A single small broadcast never queues, so DCQCN must not slow it
     down (no marks, full line rate). *)
  let f = fat4 () in
  let spec = one_broadcast f ~scale:16 ~bytes:1e6 ~seed:41 in
  let plain = run_one f Scheme.Optimal spec in
  let out =
    Runner.run ~cc:(Broadcast.Dcqcn { guard = Some 50e-6; ecn_delay = 10e-6 })
      f Scheme.Optimal [ spec ]
  in
  match out.Runner.ccts with
  | [ cct ] ->
      Alcotest.(check bool) "within 25% of plain" true
        (cct < plain *. 1.25 +. 1e-6)
  | _ -> Alcotest.fail "expected one CCT"

(* ------------------------------------------------------------------ *)
(* Loss recovery end to end                                            *)
(* ------------------------------------------------------------------ *)

let test_broadcast_completes_under_loss () =
  let f = fat4 () in
  let spec = one_broadcast f ~scale:32 ~bytes:8e6 ~seed:51 in
  List.iter
    (fun scheme ->
      let loss = Peel_sim.Transfer.loss_model ~seed:7 ~prob:0.02 () in
      let out = Runner.run ~loss f scheme [ spec ] in
      let cct = List.hd out.Runner.ccts in
      Alcotest.(check bool)
        (Scheme.to_string scheme ^ " completes under loss")
        true
        (cct > 0.0 && Float.is_finite cct))
    [ Scheme.Ring; Scheme.Btree; Scheme.Optimal; Scheme.Peel ]

let test_loss_never_speeds_things_up () =
  let f = fat4 () in
  let spec = one_broadcast f ~scale:32 ~bytes:8e6 ~seed:52 in
  let clean = run_one f Scheme.Peel spec in
  let loss = Peel_sim.Transfer.loss_model ~seed:8 ~prob:0.05 () in
  let lossy = List.hd (Runner.run ~loss f Scheme.Peel [ spec ]).Runner.ccts in
  Alcotest.(check bool) "lossy >= clean" true (lossy >= clean -. 1e-12);
  Alcotest.(check bool) "repairs happened" true
    (loss.Peel_sim.Transfer.retransmissions > 0)

(* ------------------------------------------------------------------ *)
(* Paths: destination-bounded search vs a full BFS per query          *)
(* ------------------------------------------------------------------ *)

let paths_fabrics =
  [|
    (fun () -> Fabric.fat_tree ~k:4 ~hosts_per_tor:2 ~gpus_per_host:4 ());
    (fun () -> Fabric.fat_tree ~k:8 ~hosts_per_tor:2 ~gpus_per_host:2 ());
    (fun () -> Fabric.leaf_spine ~gpus_per_host:2 ~spines:4 ~leaves:6 ~hosts_per_leaf:2 ());
    (fun () -> Fabric.rail ~rails:4 ~groups:2 ~servers_per_group:3 ~spines:2 ());
    (fun () -> Fabric.of_zoo (Zoo.jellyfish ~hosts_per_tor:2 ~switches:12 ~net_degree:3 ~seed:5 ()));
  |]

(* What [Paths.links] must return: NVLink through the NVSwitch for
   sibling GPUs, else the full-BFS shortest path ([None] when
   disconnected, or when a sibling's NVLink is down). *)
let reference_links fabric ~ecmp a b =
  let g = Fabric.graph fabric in
  let gpu v = (Graph.node g v).Graph.kind = Graph.Gpu in
  let nodes =
    if a = b then Some [ a ]
    else if gpu a && gpu b && Fabric.host_of_gpu fabric a = Fabric.host_of_gpu fabric b then
      Some [ a; Fabric.host_of_gpu fabric a; b ]
    else if ecmp then Graph.shortest_path_ecmp g a b ~salt:0
    else Graph.shortest_path g a b
  in
  match Option.map (Peel_sim.Transfer.path_links g) nodes with
  | links -> links
  | exception Invalid_argument _ -> None

let paths_links_opt paths a b =
  match Paths.links paths a b with
  | l -> Some l
  | exception Invalid_argument _ -> None

(* Queries are (keep the previous source?, source, destination) draws
   over the endpoints, so runs of one source (the search resumes)
   interleave with switches (it restarts).  Halfway through, one more
   link fails and the cache is invalidated; the rest of the sequence is
   checked against the new link state. *)
let prop_paths_match_full_bfs =
  QCheck.Test.make ~name:"Paths.links = full-BFS shortest path" ~count:120
    QCheck.(
      make
        ~print:(fun (fi, seed, pct, ecmp, qs) ->
          Printf.sprintf "fabric %d seed %d fail %d%% ecmp %b, %d queries" fi seed pct ecmp
            (List.length qs))
        Gen.(
          tup5
            (int_bound (Array.length paths_fabrics - 1))
            (int_bound 10_000) (int_bound 10) bool
            (list_size (int_range 1 60) (triple bool (int_bound 100_000) (int_bound 100_000)))))
    (fun (fi, seed, pct, ecmp, queries) ->
      let fabric = paths_fabrics.(fi) () in
      let g = Fabric.graph fabric in
      let rng = Rng.create seed in
      ignore
        (Fabric.fail_random fabric ~rng ~tier:`All ~fraction:(float_of_int pct /. 100.0) ());
      let eps = Fabric.endpoints fabric in
      let n = Array.length eps in
      let paths = Paths.create ~ecmp fabric in
      let half = List.length queries / 2 in
      let src = ref eps.(0) in
      List.for_all Fun.id
        (List.mapi
           (fun i (keep, s, d) ->
             if i = half then begin
               let up = List.filter (Graph.link_up g) (Array.to_list (Graph.duplex_ids g)) in
               Graph.fail_link g (List.nth up (Rng.int rng (List.length up)));
               Paths.invalidate paths
             end;
             if not keep then src := eps.(s mod n);
             let dst = eps.(d mod n) in
             paths_links_opt paths !src dst = reference_links fabric ~ecmp !src dst)
           queries))

let test_paths_disconnected () =
  let f = Fabric.leaf_spine ~spines:2 ~leaves:3 ~hosts_per_leaf:2 () in
  let g = Fabric.graph f in
  let hosts = Fabric.hosts f in
  let a = hosts.(0) and near = hosts.(1) and far = hosts.(5) in
  let leaf = Fabric.attach_tor f a in
  let paths = Paths.create f in
  Alcotest.(check bool) "connected before" true (Paths.links paths a far <> []);
  (* Cut the first leaf off the spines: its hosts still reach each other. *)
  Array.iter
    (fun (w, lid) ->
      if (Graph.node g w).Graph.kind = Graph.Spine then Graph.fail_link g lid)
    (Graph.out_links g leaf);
  Paths.invalidate paths;
  Alcotest.check_raises "disconnected pair" (Invalid_argument "Paths.links: endpoints disconnected")
    (fun () -> ignore (Paths.links paths a far));
  (* The exhausted search still answers the same source's nearby pair. *)
  Alcotest.(check (option (list int)))
    "same source, reachable" (reference_links f ~ecmp:true a near) (Some (Paths.links paths a near));
  Graph.restore_all g;
  Paths.invalidate paths;
  Alcotest.(check (option (list int)))
    "reconnected after invalidate" (reference_links f ~ecmp:true a far)
    (Some (Paths.links paths a far))

let () =
  Alcotest.run "peel_collective"
    [
      ( "execution",
        [
          Alcotest.test_case "all schemes complete" `Quick test_all_schemes_complete;
          Alcotest.test_case "deterministic" `Quick test_deterministic_rerun;
          Alcotest.test_case "empty dests" `Quick test_empty_dests_completes_instantly;
        ] );
      ( "paper_shape",
        [
          Alcotest.test_case "multicast beats unicast" `Quick test_multicast_beats_unicast;
          Alcotest.test_case "peel close to optimal" `Quick test_peel_close_to_optimal;
          Alcotest.test_case "orca pays setup" `Quick test_orca_pays_setup_delay;
          Alcotest.test_case "peel no setup" `Quick test_peel_no_setup_delay;
          Alcotest.test_case "prog cores between" `Quick test_peel_prog_cores_between;
          Alcotest.test_case "scaling shapes" `Quick test_ring_scales_linearly_tree_logarithmically;
        ] );
      ( "workload",
        [
          Alcotest.test_case "all complete" `Quick test_workload_all_complete;
          Alcotest.test_case "load inflates CCT" `Slow test_load_inflates_tail;
        ] );
      ( "ecmp",
        [
          Alcotest.test_case "no-ecmp funnels tree traffic" `Quick
            (fun () ->
              (* Tree schedules criss-cross pods: without per-flow hash
                 diversity, their flows pile onto the lowest-id core
                 path and CCT inflates. *)
              let f = Fabric.fat_tree ~k:4 ~hosts_per_tor:4 ~gpus_per_host:4 () in
              let rng = Rng.create 71 in
              let cs =
                Spec.poisson_broadcasts f rng ~n:10 ~scale:64 ~bytes:32e6
                  ~load:0.5 ()
              in
              let mean ecmp =
                (Runner.summarize (Runner.run ~ecmp f Scheme.Dbtree cs))
                  .Peel_util.Stats.mean
              in
              Alcotest.(check bool) "ecmp strictly helps trees" true
                (mean true < mean false));
        ] );
      ( "loss",
        [
          Alcotest.test_case "completes under loss" `Quick test_broadcast_completes_under_loss;
          Alcotest.test_case "loss never helps" `Quick test_loss_never_speeds_things_up;
        ] );
      ( "congestion",
        [
          Alcotest.test_case "guard timer improves" `Slow test_guard_timer_improves_cct;
          Alcotest.test_case "cc noop when idle" `Quick test_cc_noop_when_uncongested;
        ] );
      ( "paths",
        [
          QCheck_alcotest.to_alcotest prop_paths_match_full_bfs;
          Alcotest.test_case "disconnected pair raises" `Quick test_paths_disconnected;
        ] );
    ]
