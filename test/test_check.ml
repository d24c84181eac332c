(* Tests for Peel_check: the static invariant checker must certify
   every artifact the library produces, and must catch each injected
   corruption with the right diagnostic code. *)

open Peel_topology
module D = Peel_check.Diagnostic
module Check_tree = Peel_check.Check_tree
module Check_plan = Peel_check.Check_plan
module Check_sim = Peel_check.Check_sim
module Check_collective = Peel_check.Check_collective
module Plan = Peel.Plan
module Tree = Peel.Tree
module Rng = Peel_util.Rng

let ft8 () = Fabric.fat_tree ~k:8 ~hosts_per_tor:2 ~gpus_per_host:2 ()
let ls () = Fabric.leaf_spine ~spines:4 ~leaves:8 ~hosts_per_leaf:2 ()

let group fabric rng ~scale =
  let members = Peel_workload.Spec.place fabric rng ~scale () in
  let source = List.hd members in
  (source, List.filter (fun m -> m <> source) members)

let check_no_errors what ds =
  Alcotest.(check (list string))
    what []
    (List.map D.to_string (D.errors ds))

let check_code what code ds =
  Alcotest.(check bool) (what ^ " flags " ^ code) true (D.has_code code ds);
  Alcotest.(check bool) (what ^ " has errors") true (D.has_errors ds)

(* ------------------------------------------------------------------ *)
(* Clean artifacts are certified                                       *)
(* ------------------------------------------------------------------ *)

let test_scenario_clean_fat_tree () =
  let fabric = ft8 () in
  let source, dests = group fabric (Rng.create 1) ~scale:24 in
  check_no_errors "fat-tree scenario" (Peel_check.check_scenario fabric ~source ~dests)

let test_scenario_clean_leaf_spine () =
  let fabric = ls () in
  let source, dests = group fabric (Rng.create 2) ~scale:12 in
  check_no_errors "leaf-spine scenario"
    (Peel_check.check_scenario fabric ~source ~dests)

let test_scenario_clean_under_failures () =
  let fabric = ls () in
  let rng = Rng.create 3 in
  ignore (Fabric.fail_random fabric ~rng ~tier:`All ~fraction:0.1 ());
  let source, dests = group fabric rng ~scale:12 in
  check_no_errors "failed-fabric scenario"
    (Peel_check.check_scenario fabric ~source ~dests)

let test_scenario_clean_budgeted () =
  let fabric = ft8 () in
  let source, dests = group fabric (Rng.create 4) ~scale:30 in
  check_no_errors "budgeted scenario"
    (Peel_check.check_scenario ~budget:2 fabric ~source ~dests)

let test_layer_peel_within_theorem_bound () =
  (* Theorem 2.5: the greedy stays within min(F,|D|) of the symmetric
     optimum even as links fail. *)
  let rng = Rng.create 5 in
  for _ = 1 to 10 do
    let fabric = ls () in
    ignore (Fabric.fail_random fabric ~rng ~tier:`All ~fraction:0.15 ());
    let source, dests = group fabric rng ~scale:8 in
    match
      Peel_steiner.Layer_peel.build (Fabric.graph fabric) ~source ~dests
    with
    | None -> Alcotest.fail "group disconnected despite ensure_connected"
    | Some tree ->
        check_no_errors "layer-peel tree"
          (Check_tree.check ~fabric (Fabric.graph fabric) tree ~source ~dests)
  done

(* ------------------------------------------------------------------ *)
(* Injected corruption 1: broken tree edge                             *)
(* ------------------------------------------------------------------ *)

let test_corrupt_tree_broken_edge () =
  let fabric = ft8 () in
  let g = Fabric.graph fabric in
  let source, dests = group fabric (Rng.create 10) ~scale:16 in
  match Peel.multicast_tree fabric ~source ~dests with
  | None -> Alcotest.fail "no tree on a healthy fabric"
  | Some tree ->
      check_no_errors "tree before corruption"
        (Check_tree.check ~fabric g tree ~source ~dests);
      (* Fail a fabric link the tree rides; the tree is now stale. *)
      Graph.fail_link g (List.hd (Tree.link_ids tree));
      check_code "broken edge" "TREE002" (Check_tree.check g tree ~source ~dests);
      Graph.restore_all g

(* ------------------------------------------------------------------ *)
(* Injected corruption 2: duplicated receiver                          *)
(* ------------------------------------------------------------------ *)

let test_corrupt_plan_duplicate_receiver () =
  let fabric = ft8 () in
  let source, dests = group fabric (Rng.create 11) ~scale:16 in
  let plan = Peel.Plan.build fabric ~source ~dests in
  check_no_errors "plan before corruption" (Check_plan.check fabric plan);
  (* Deliver the first packet twice: every endpoint in it now receives
     two copies and its racks are covered by two packets. *)
  let corrupt =
    { plan with Plan.packets = List.hd plan.Plan.packets :: plan.Plan.packets }
  in
  let ds = Check_plan.check fabric corrupt in
  check_code "duplicate receiver" "PLAN001" ds;
  check_code "duplicate coverage" "PLAN005" ds

let test_corrupt_ring_duplicate_receiver () =
  let fabric = ft8 () in
  let source, dests = group fabric (Rng.create 12) ~scale:8 in
  let members = List.sort_uniq compare (source :: dests) in
  let ring = Peel_baselines.Ring.schedule fabric ~source ~members in
  check_no_errors "ring before corruption"
    (Check_collective.check_ring ring ~source ~members);
  (* Point the last hop back at the second member: one rank now
     receives twice and the tail rank never receives. *)
  let order = ring.Peel_baselines.Ring.order in
  let n = Array.length order in
  let corrupt_hops =
    List.mapi
      (fun i (s, r) -> if i = n - 2 then (s, order.(1)) else (s, r))
      ring.Peel_baselines.Ring.hops
  in
  let corrupt = { ring with Peel_baselines.Ring.hops = corrupt_hops } in
  let ds = Check_collective.check_ring corrupt ~source ~members in
  check_code "ring duplicate receiver" "COL003" ds

(* ------------------------------------------------------------------ *)
(* Injected corruption 3: over-covering prefix                         *)
(* ------------------------------------------------------------------ *)

let test_corrupt_plan_overcovering_prefix () =
  let fabric = ft8 () in
  (* Members on ToRs 0 and 2 of pod 0: the exact cover uses two
     singleton prefixes (00, 10). *)
  let tors = Fabric.tors_of_pod fabric 0 in
  let on_tor t =
    Array.to_list (Fabric.endpoints fabric)
    |> List.filter (fun e -> Fabric.attach_tor fabric e = t)
  in
  let eps0 = on_tor tors.(0) and eps2 = on_tor tors.(2) in
  let source = List.hd eps0 in
  let dests = List.tl eps0 @ eps2 in
  let plan = Peel.Plan.build fabric ~source ~dests in
  Alcotest.(check int) "two packets" 2 (Plan.num_packets plan);
  check_no_errors "plan before corruption" (Check_plan.check fabric plan);
  (* Widen one packet's prefix to the whole pod: it now also covers the
     other packet's rack (and two memberless racks it never accounted
     as waste). *)
  let corrupt =
    {
      plan with
      Plan.packets =
        List.mapi
          (fun i p ->
            if i = 0 then
              { p with Plan.tor_prefix = { Peel.Cover.value = 0; len = 0 } }
            else p)
          plan.Plan.packets;
    }
  in
  let ds = Check_plan.check fabric corrupt in
  check_code "over-covering prefix" "PLAN005" ds;
  check_code "stale reach accounting" "PLAN004" ds

(* ------------------------------------------------------------------ *)
(* Injected corruption 4: header over the 8-byte budget                *)
(* ------------------------------------------------------------------ *)

let test_corrupt_plan_header_budget () =
  let fabric = ft8 () in
  let source, dests = group fabric (Rng.create 13) ~scale:8 in
  let plan = Peel.Plan.build fabric ~source ~dests in
  let corrupt = { plan with Plan.header_bytes = 9 } in
  let ds = Check_plan.check fabric corrupt in
  check_code "header budget" "PLAN007" ds;
  check_code "header formula" "PLAN006" ds

(* ------------------------------------------------------------------ *)
(* Injected corruption 5: rule table over the k-1 budget               *)
(* ------------------------------------------------------------------ *)

let test_corrupt_rules_over_budget () =
  let fabric = ft8 () in
  (* k = 8 -> m = 2 -> 7 rules.  A table built one bit too wide holds
     15 rules: double the static budget. *)
  Alcotest.(check int) "budget is k-1" 7 (Peel.switch_rules fabric);
  check_no_errors "correct table"
    (Check_plan.check_rules fabric (Peel.state_table fabric));
  let oversized = Peel.Rules.static_table ~m:3 in
  let ds = Check_plan.check_rules fabric oversized in
  check_code "rule budget" "RULE001" ds;
  check_code "table width" "RULE003" ds

(* ------------------------------------------------------------------ *)
(* Injected corruption 6: chunk-count mismatch                         *)
(* ------------------------------------------------------------------ *)

let test_corrupt_chunk_conservation () =
  check_no_errors "conserved"
    (Check_sim.check_chunk_conservation ~chunks:8 ~receivers:4 ~delivered:32);
  check_code "one lost chunk" "SIM005"
    (Check_sim.check_chunk_conservation ~chunks:8 ~receivers:4 ~delivered:31);
  check_code "duplicate delivery" "SIM005"
    (Check_sim.check_chunk_conservation ~chunks:8 ~receivers:4 ~delivered:33)

(* ------------------------------------------------------------------ *)
(* More corruption: Theorem 2.5 bound, outcomes, cc params, schedules  *)
(* ------------------------------------------------------------------ *)

let test_corrupt_tree_cost_bound () =
  (* |D| = 1 makes the Theorem 2.5 factor 1, so any tree costlier than
     the direct path violates the bound.  Hand-build one that detours
     through a second spine it never needs. *)
  let fabric = Fabric.leaf_spine ~spines:2 ~leaves:2 ~hosts_per_leaf:2 () in
  let g = Fabric.graph fabric in
  let hosts = Fabric.hosts fabric in
  let source = hosts.(0) in
  let dest = hosts.(2) (* other leaf *) in
  let tor0 = Fabric.attach_tor fabric source in
  let tor1 = Fabric.attach_tor fabric dest in
  let spines =
    match fabric with
    | Fabric.Ls ls -> List.sort compare (Array.to_list ls.Leaf_spine.spines)
    | _ -> Alcotest.fail "leaf-spine expected"
  in
  let s0, s1 =
    match spines with a :: b :: _ -> (a, b) | _ -> Alcotest.fail "two spines"
  in
  let edge parent child =
    match Graph.link_between g parent child with
    | Some lid -> (child, (parent, lid))
    | None -> Alcotest.fail (Printf.sprintf "no link %d->%d" parent child)
  in
  let wasteful =
    Tree.of_parents g ~root:source
      ~parents:
        [
          edge source tor0; edge tor0 s0; edge s0 tor1; edge tor1 dest;
          (* pointless extra branch *)
          edge tor0 s1;
        ]
  in
  let ds = Check_tree.check ~fabric g wasteful ~source ~dests:[ dest ] in
  check_code "cost bound" "TREE005" ds;
  (* With a link down the bound is only a lower bound on OPT, so the
     same breach is a warning.  The failed link is off the tree. *)
  (match Graph.link_between g s1 tor1 with
  | Some lid -> Graph.fail_link g lid
  | None -> Alcotest.fail "no spine-leaf link");
  let ds = Check_tree.check ~fabric g wasteful ~source ~dests:[ dest ] in
  Alcotest.(check bool) "link down: still TREE005" true (D.has_code "TREE005" ds);
  Alcotest.(check bool) "link down: a warning only" false (D.has_errors ds)

let test_corrupt_outcome () =
  let fabric = ls () in
  let outcome =
    Peel_collective.Runner.run fabric Peel_collective.Scheme.Peel
      (Peel_workload.Spec.poisson_broadcasts fabric (Rng.create 14) ~n:3
         ~scale:8 ~bytes:1e6 ~load:0.3 ())
  in
  let telemetry = outcome.Peel_collective.Runner.telemetry in
  let makespan = outcome.Peel_collective.Runner.makespan in
  check_no_errors "real outcome"
    (Check_sim.check_outcome ~expected:3
       ~ccts:outcome.Peel_collective.Runner.ccts ~makespan telemetry);
  check_code "lost collective" "SIM003"
    (Check_sim.check_outcome ~expected:3 ~ccts:[ 1e-3; nan; 2e-3 ] ~makespan
       telemetry);
  check_code "missing collective" "SIM003"
    (Check_sim.check_outcome ~expected:3 ~ccts:[ 1e-3 ] ~makespan telemetry)

let test_corrupt_trace () =
  let module Trace = Peel_sim.Trace in
  (* A clean trace from a real run passes. *)
  let fabric = ls () in
  let trace = Trace.create () in
  let cs =
    Peel_workload.Spec.poisson_broadcasts fabric (Rng.create 14) ~n:2 ~scale:8
      ~bytes:1e6 ~load:0.3 ()
  in
  let receivers =
    List.fold_left
      (fun acc (c : Peel_workload.Spec.collective) ->
        acc + List.length c.Peel_workload.Spec.dests)
      0 cs
  in
  ignore
    (Peel_collective.Runner.run ~chunks:8 ~trace fabric
       Peel_collective.Scheme.Peel cs);
  check_no_errors "real trace"
    (Check_sim.check_trace ~expected_deliveries:(8 * receivers) trace);
  (* Conservation violation: demand one more delivery than traced. *)
  check_code "missing delivery" "SIM005"
    (Check_sim.check_trace ~expected_deliveries:((8 * receivers) + 1) trace);
  (* Structural corruption: a hand-built log that runs backwards. *)
  let bad = Trace.create () in
  Trace.delivery bad ~time:2.0 ~node:1 ~flow:0 ~chunk:0;
  Trace.delivery bad ~time:1.0 ~node:2 ~flow:0 ~chunk:1;
  check_code "backwards timestamps" "SIM006" (Check_sim.check_trace bad);
  (* Malformed reserve event: negative bytes. *)
  let bad = Trace.create () in
  Trace.reserve bad ~time:0.0 ~link:0 ~bytes:(-5.0) ~queue_delay:0.0
    ~backlog:0.0;
  check_code "negative bytes" "SIM006" (Check_sim.check_trace bad);
  (* Counter drift: counters say more deliveries than the log holds. *)
  let bad = Trace.create () in
  Trace.delivery bad ~time:1.0 ~node:1 ~flow:0 ~chunk:0;
  (Trace.counters bad).Trace.deliveries <- 2;
  check_code "counter drift" "SIM006" (Check_sim.check_trace bad)

let test_corrupt_cc_params () =
  check_no_errors "paper defaults"
    (Check_sim.check_cc_params ~ecn_delay:20e-6 ~line_rate:12.5e9 ());
  check_code "negative ECN threshold" "SIM002"
    (Check_sim.check_cc_params ~ecn_delay:(-1e-6) ~line_rate:12.5e9 ());
  check_code "zero guard" "SIM002"
    (Check_sim.check_cc_params ~guard:(Some 0.0) ~ecn_delay:20e-6
       ~line_rate:12.5e9 ());
  check_code "bad line rate" "SIM002"
    (Check_sim.check_cc_params ~ecn_delay:20e-6 ~line_rate:0.0 ())

let test_corrupt_fabric_link () =
  let fabric = ls () in
  check_no_errors "healthy fabric" (Check_sim.check_fabric fabric);
  let g = Fabric.graph fabric in
  let l = Graph.link g 0 in
  (* A zero-capacity link would serialize forever: forge one by copying
     a leaf-spine's graph through [Graph.Builder] with every cable at
     bandwidth 0. *)
  let forged =
    match Fabric.leaf_spine ~spines:2 ~leaves:2 ~hosts_per_leaf:1 () with
    | Fabric.Ls ls ->
        let b = Graph.Builder.create () in
        Array.iter
          (fun (n : Graph.node) ->
            ignore (Graph.Builder.add_node b n.Graph.kind ~pod:n.Graph.pod ~idx:n.Graph.idx))
          (Graph.nodes ls.Leaf_spine.graph);
        Array.iter
          (fun (l : Graph.link) ->
            if l.Graph.link_id land 1 = 0 then
              ignore
                (Graph.Builder.add_duplex b ~latency:l.Graph.latency ~bandwidth:0.0
                   l.Graph.src l.Graph.dst))
          (Graph.links ls.Leaf_spine.graph);
        Fabric.Ls { ls with Leaf_spine.graph = Graph.Builder.finish b }
    | _ -> assert false
  in
  Alcotest.(check bool) "original untouched" true (l.Graph.bandwidth > 0.0);
  check_code "zero-capacity links" "SIM001" (Check_sim.check_fabric forged)

let test_corrupt_btree_orphan () =
  let fabric = ft8 () in
  let source, dests = group fabric (Rng.create 15) ~scale:8 in
  let members = List.sort_uniq compare (source :: dests) in
  let bt = Peel_baselines.Binary_tree.schedule fabric ~source ~members in
  check_no_errors "btree before corruption"
    (Check_collective.check_btree bt ~source ~members);
  (* Drop the last logical send: its receiver becomes unreachable. *)
  let edges = bt.Peel_baselines.Binary_tree.edges in
  let corrupt =
    {
      bt with
      Peel_baselines.Binary_tree.edges =
        List.filteri (fun i _ -> i < List.length edges - 1) edges;
    }
  in
  let ds = Check_collective.check_btree corrupt ~source ~members in
  check_code "orphaned member" "COL003" ds;
  check_code "edge count" "COL002" ds

let test_assert_valid_raises () =
  let ds =
    [ D.errorf ~code:"PLAN007" ~loc:"header" "header is 9 B, over budget" ]
  in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "raises Failure" true
    (try
       Peel_check.assert_valid ~what:"unit test" ds;
       false
     with Failure msg ->
       (* The raised message must name the diagnostic code. *)
       contains msg "PLAN007");
  (* Warnings alone never raise. *)
  Peel_check.assert_valid ~what:"unit test"
    [ D.warningf ~code:"SIM002" ~loc:"dcqcn" "guard far above 50 us" ]

(* ------------------------------------------------------------------ *)
(* Randomized adversarial mutations                                    *)
(* ------------------------------------------------------------------ *)

let mutate_plan rng (plan : Plan.t) =
  let packets = plan.Plan.packets in
  match Rng.int rng 3 with
  | 0 ->
      (* Drop a packet: its endpoints go undelivered. *)
      let i = Rng.int rng (List.length packets) in
      ("drop packet", { plan with Plan.packets = List.filteri (fun j _ -> j <> i) packets })
  | 1 ->
      (* Duplicate a packet: double delivery. *)
      let i = Rng.int rng (List.length packets) in
      ("duplicate packet", { plan with Plan.packets = List.nth packets i :: packets })
  | _ ->
      (* Forge the header size. *)
      ("forge header", { plan with Plan.header_bytes = plan.Plan.header_bytes + 8 })

let test_adversarial_plan_mutations () =
  let rng = Rng.create 99 in
  for trial = 1 to 25 do
    let fabric = ft8 () in
    let source, dests = group fabric rng ~scale:(8 + Rng.int rng 48) in
    let plan = Peel.Plan.build fabric ~source ~dests in
    check_no_errors
      (Printf.sprintf "trial %d: valid plan certified" trial)
      (Check_plan.check fabric plan);
    let name, corrupt = mutate_plan rng plan in
    Alcotest.(check bool)
      (Printf.sprintf "trial %d: %s caught" trial name)
      true
      (D.has_errors (Check_plan.check fabric corrupt))
  done

let test_adversarial_tree_mutations () =
  let rng = Rng.create 100 in
  for trial = 1 to 25 do
    let fabric = ls () in
    let g = Fabric.graph fabric in
    let source, dests = group fabric rng ~scale:(4 + Rng.int rng 12) in
    match Peel.multicast_tree fabric ~source ~dests with
    | None -> Alcotest.fail "no tree on a healthy fabric"
    | Some tree ->
        check_no_errors
          (Printf.sprintf "trial %d: valid tree certified" trial)
          (Check_tree.check ~fabric g tree ~source ~dests);
        let caught =
          if Rng.bool rng then begin
            (* Break a random edge the tree rides. *)
            let lids = Tree.link_ids tree in
            Graph.fail_link g (List.nth lids (Rng.int rng (List.length lids)));
            let ds = Check_tree.check g tree ~source ~dests in
            Graph.restore_all g;
            D.has_code "TREE002" ds
          end
          else begin
            (* Claim an extra destination the tree never reaches. *)
            let outsider =
              Array.to_list (Fabric.endpoints fabric)
              |> List.find (fun e -> not (Tree.mem tree e))
            in
            D.has_code "TREE003"
              (Check_tree.check g tree ~source ~dests:(outsider :: dests))
          end
        in
        Alcotest.(check bool)
          (Printf.sprintf "trial %d: mutation caught" trial)
          true caught
  done

(* ------------------------------------------------------------------ *)
(* Theorem 2.5 census: every failure set of a small fabric             *)
(* ------------------------------------------------------------------ *)

(* The 3x4 leaf-spine with one host per leaf: every one of the 4,096
   failure sets of its 12 spine-leaf cables, every source and every
   non-empty destination subset of the other hosts.  The greedy
   ([Layer_peel.build]) is compared with the exact optimum on the
   failed graph ([Exact.oracle]); a group either cannot reach is
   skipped.  Every tree must validate, pass the tree checks, and cost
   no more than Theorem 2.5's envelope against that optimum; with
   every link up the Lemma 2.1 bound must equal it. *)
let test_theorem25_census () =
  let fabric = Fabric.leaf_spine ~spines:3 ~leaves:4 ~hosts_per_leaf:1 () in
  let g = Fabric.graph fabric in
  let cables =
    match fabric with
    | Fabric.Ls ls -> Leaf_spine.spine_leaf_duplex_links ls
    | _ -> assert false
  in
  let hosts = Fabric.endpoints fabric in
  let n = Array.length hosts in
  let instances = ref 0 and above = ref 0 and worst = ref (0, 1) in
  let census mask =
    Array.iteri
      (fun i l ->
        if mask land (1 lsl i) <> 0 then Graph.fail_link g l else Graph.recover_link g l)
      cables;
    for s = 0 to n - 1 do
      let source = hosts.(s) in
      let others = List.filter (fun h -> h <> source) (Array.to_list hosts) in
      for sub = 1 to (1 lsl (n - 1)) - 1 do
        let dests = List.filteri (fun i _ -> sub land (1 lsl i) <> 0) others in
        match Peel.Layer_peel.build g ~source ~dests with
        | None -> ()
        | Some tree -> (
            match Peel.Exact.oracle g ~source ~dests with
            | None -> ()
            | Some opt ->
                incr instances;
                let fail fmt =
                  Alcotest.failf ("failures %#x, %d -> [%s]: " ^^ fmt) mask source
                    (String.concat ";" (List.map string_of_int dests))
                in
                (match Tree.validate g tree ~dests with
                | Ok () -> ()
                | Error e -> fail "invalid tree: %s" e);
                (match D.errors (Check_tree.check ~fabric g tree ~source ~dests) with
                | [] -> ()
                | d :: _ -> fail "%s" (D.to_string d));
                let dist = Graph.bfs_dist g source in
                let far = List.fold_left (fun acc d -> max acc dist.(d)) 0 dests in
                let cost = Tree.cost tree in
                let ndests = List.length dests in
                if cost > Check_tree.envelope ~far ~ndests ~opt then
                  fail "cost %d above the envelope (OPT %d, F %d)" cost opt far;
                if mask = 0
                   && Check_tree.symmetric_lower_bound fabric ~source ~dests <> Some opt
                then fail "OPT_sym differs from OPT %d" opt;
                if cost > opt then begin
                  incr above;
                  let c, o = !worst in
                  if cost * o > c * opt then worst := (cost, opt)
                end)
      done
    done
  in
  Fun.protect
    ~finally:(fun () -> Graph.restore_all g)
    (fun () ->
      for mask = 0 to (1 lsl Array.length cables) - 1 do
        census mask
      done);
  Alcotest.(check int) "cables" 12 (Array.length cables);
  Alcotest.(check int) "reachable instances" 69_244 !instances;
  Alcotest.(check int) "greedy above OPT" 216 !above;
  Alcotest.(check (pair int int)) "worst greedy vs OPT" (8, 7) !worst;
  Alcotest.(check bool) "every link restored" true
    (Array.for_all (fun (l : Graph.link) -> l.Graph.up) (Graph.links g))

let () =
  Alcotest.run "peel_check"
    [
      ( "clean",
        [
          Alcotest.test_case "fat-tree scenario" `Quick test_scenario_clean_fat_tree;
          Alcotest.test_case "leaf-spine scenario" `Quick test_scenario_clean_leaf_spine;
          Alcotest.test_case "10% failures" `Quick test_scenario_clean_under_failures;
          Alcotest.test_case "budgeted cover" `Quick test_scenario_clean_budgeted;
          Alcotest.test_case "theorem 2.5 census, 3x4 leaf-spine" `Quick
            test_theorem25_census;
          Alcotest.test_case "theorem 2.5 bound holds" `Quick
            test_layer_peel_within_theorem_bound;
        ] );
      ( "corruptions",
        [
          Alcotest.test_case "broken tree edge" `Quick test_corrupt_tree_broken_edge;
          Alcotest.test_case "duplicated receiver (plan)" `Quick
            test_corrupt_plan_duplicate_receiver;
          Alcotest.test_case "duplicated receiver (ring)" `Quick
            test_corrupt_ring_duplicate_receiver;
          Alcotest.test_case "over-covering prefix" `Quick
            test_corrupt_plan_overcovering_prefix;
          Alcotest.test_case "header over 8 B" `Quick test_corrupt_plan_header_budget;
          Alcotest.test_case "rule table over k-1" `Quick test_corrupt_rules_over_budget;
          Alcotest.test_case "chunk-count mismatch" `Quick
            test_corrupt_chunk_conservation;
          Alcotest.test_case "tree cost bound" `Quick test_corrupt_tree_cost_bound;
          Alcotest.test_case "simulation outcome" `Quick test_corrupt_outcome;
          Alcotest.test_case "simulation trace" `Quick test_corrupt_trace;
          Alcotest.test_case "cc params" `Quick test_corrupt_cc_params;
          Alcotest.test_case "fabric links" `Quick test_corrupt_fabric_link;
          Alcotest.test_case "btree orphan" `Quick test_corrupt_btree_orphan;
          Alcotest.test_case "assert_valid" `Quick test_assert_valid_raises;
        ] );
      ( "adversarial",
        [
          Alcotest.test_case "random plan mutations" `Quick
            test_adversarial_plan_mutations;
          Alcotest.test_case "random tree mutations" `Quick
            test_adversarial_tree_mutations;
        ] );
    ]
