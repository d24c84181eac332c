(* Tests for mid-run failure injection (Peel_sim.Fault) and the
   failure-tolerant broadcast launchers (Peel_collective.Failover):
   schedule validation, engine application, deterministic replay of a
   whole traced failover run, and completion + conservation under
   failures for every scheme. *)

open Peel_topology
open Peel_workload
open Peel_collective
module Fault = Peel_sim.Fault
module Trace = Peel_sim.Trace
module Engine = Peel_sim.Engine
module Link_state = Peel_sim.Link_state
module Json = Peel_util.Json
module Rng = Peel_util.Rng

let expect_invalid what f =
  match f () with
  | _ -> Alcotest.fail ("expected Invalid_argument: " ^ what)
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Fault schedules: validation and ordering                            *)
(* ------------------------------------------------------------------ *)

let ev at duplex action = { Fault.at; duplex; action }

let test_of_list_sorts_stably () =
  let sched =
    Fault.of_list
      [ ev 2.0 4 Fault.Fail; ev 1.0 2 Fault.Fail; ev 1.0 0 Fault.Recover ]
  in
  Alcotest.(check bool) "not empty" false (Fault.is_empty sched);
  match Fault.events sched with
  | [ a; b; c ] ->
      Alcotest.(check (float 0.0)) "earliest first" 1.0 a.Fault.at;
      Alcotest.(check int) "tie keeps list order" 2 a.Fault.duplex;
      Alcotest.(check int) "tie keeps list order (2nd)" 0 b.Fault.duplex;
      Alcotest.(check (float 0.0)) "latest last" 2.0 c.Fault.at
  | _ -> Alcotest.fail "expected three events"

let test_of_list_rejects_bad_events () =
  expect_invalid "negative time" (fun () ->
      Fault.of_list [ ev (-1.0) 0 Fault.Fail ]);
  expect_invalid "NaN time" (fun () ->
      Fault.of_list [ ev Float.nan 0 Fault.Fail ]);
  expect_invalid "infinite time" (fun () ->
      Fault.of_list [ ev Float.infinity 0 Fault.Fail ]);
  expect_invalid "negative link id" (fun () ->
      Fault.of_list [ ev 1.0 (-2) Fault.Fail ]);
  Alcotest.(check bool) "empty schedule is fine" true
    (Fault.is_empty (Fault.of_list []))

let test_schedule_of_failures_validates_recovery () =
  expect_invalid "recovery before failure" (fun () ->
      Fault.schedule_of_failures ~at:2.0 ~recover_at:1.0 [ 0 ]);
  expect_invalid "recovery at failure instant" (fun () ->
      Fault.schedule_of_failures ~at:2.0 ~recover_at:2.0 [ 0 ]);
  let sched = Fault.schedule_of_failures ~at:1.0 ~recover_at:3.0 [ 0; 4 ] in
  Alcotest.(check int) "two fails + two recovers" 4
    (List.length (Fault.events sched));
  Alcotest.(check bool) "fails precede recovers" true
    (match Fault.events sched with
    | [ a; b; c; d ] ->
        a.Fault.action = Fault.Fail
        && b.Fault.action = Fault.Fail
        && c.Fault.action = Fault.Recover
        && d.Fault.action = Fault.Recover
    | _ -> false)

let test_install_applies_and_skips_noops () =
  (* Fail a pair twice and recover it twice: only the two real
     transitions reach the hook, and the link ends back up. *)
  let f = Fabric.leaf_spine ~spines:2 ~leaves:2 ~hosts_per_leaf:1 () in
  let g = Fabric.graph f in
  let victim =
    match f with
    | Fabric.Ls ls ->
        Option.get
          (Graph.link_between g ls.Leaf_spine.spines.(0)
             ls.Leaf_spine.leaves.(0))
    | _ -> Alcotest.fail "expected leaf-spine"
  in
  let trace = Trace.create ~level:Trace.Full () in
  let engine = Engine.create ~trace () in
  let links = Link_state.create ~trace g in
  let sched =
    Fault.of_list
      [
        ev 1.0 victim Fault.Fail;
        ev 1.5 victim Fault.Fail;
        ev 2.0 victim Fault.Recover;
        ev 2.5 victim Fault.Recover;
      ]
  in
  let seen = ref [] in
  Fault.install engine links sched ~on_event:(fun e -> seen := e :: !seen) ();
  Alcotest.(check bool) "down only after install runs" true
    (Link_state.up links ~link:victim);
  Engine.run engine;
  Alcotest.(check int) "no-ops skip the hook" 2 (List.length !seen);
  Alcotest.(check (list (float 0.0)))
    "hook sees the real transitions" [ 1.0; 2.0 ]
    (List.rev_map (fun (e : Fault.event) -> e.Fault.at) !seen);
  Alcotest.(check bool) "link is back up" true
    (Link_state.up links ~link:victim);
  Alcotest.(check bool) "peer direction back up too" true
    (Link_state.up links ~link:(Graph.peer_link victim));
  let c = Trace.counters trace in
  Alcotest.(check int) "one fail traced" 1 c.Trace.link_fails;
  Alcotest.(check int) "one recover traced" 1 c.Trace.link_recovers

(* ------------------------------------------------------------------ *)
(* Deterministic replay                                                *)
(* ------------------------------------------------------------------ *)

let failover_fabric () =
  Fabric.leaf_spine ~spines:3 ~leaves:6 ~hosts_per_leaf:2 ~gpus_per_host:2 ()

let spec_for fabric ~scale = Spec.single fabric (Rng.create 12) ~scale ~bytes:4e6

let traced_failover ?faults fabric scheme spec =
  let trace = Trace.create ~level:Trace.Full () in
  let out = Failover.run ~trace ?faults fabric scheme [ spec ] in
  (trace, List.hd out.Runner.ccts)

let test_replay_byte_identical () =
  (* Same schedule, same fabric, same spec: the full event log — with a
     link failed while chunks are in flight, dropping them mid-wire —
     must replay byte-for-byte, and the CCT must match exactly. *)
  let fabric = failover_fabric () in
  let g = Fabric.graph fabric in
  let spec = spec_for fabric ~scale:12 in
  let source = spec.Spec.source and dests = spec.Spec.dests in
  let _, clean = traced_failover fabric Failover.Peel spec in
  (* Fail links the tree actually carries traffic on — but only ones
     whose loss keeps the group connected, so the run can complete. *)
  let tree = Option.get (Peel_steiner.Layer_peel.build g ~source ~dests) in
  let ids =
    (* Greedy: keep a candidate down only if the group stays connected
       with everything already selected also down — failing the whole
       set must not partition anyone. *)
    List.filter
      (fun l ->
        Graph.fail_link g l;
        let ok = Graph.connected g (source :: dests) in
        if not ok then Graph.recover_link g l;
        ok)
      (Peel_steiner.Tree.link_ids tree)
  in
  Graph.restore_all g;
  Alcotest.(check bool) "some tree links are expendable" true (ids <> []);
  let faults = Fault.schedule_of_failures ~at:(0.4 *. clean) ids in
  let run () =
    let r = traced_failover ~faults fabric Failover.Peel spec in
    (* The schedule leaves its links down past the run's end; restore
       the shared fabric before anything else uses it. *)
    List.iter (Fabric.recover_link fabric) ids;
    r
  in
  let t1, cct1 = run () in
  let t2, cct2 = run () in
  Alcotest.(check (float 0.0)) "identical CCT" cct1 cct2;
  Alcotest.(check bool) "mid-flight chunks were dropped" true
    ((Trace.counters t1).Trace.drops > 0);
  Alcotest.(check bool) "events JSON byte-identical" true
    (Json.to_string (Trace.events_to_json t1)
    = Json.to_string (Trace.events_to_json t2));
  Alcotest.(check string) "counters JSON byte-identical"
    (Json.to_string (Trace.counters_to_json t1))
    (Json.to_string (Trace.counters_to_json t2))

(* ------------------------------------------------------------------ *)
(* Completion and conservation under failures                          *)
(* ------------------------------------------------------------------ *)

let test_completes_under_failures_all_schemes () =
  (* The exp_failover draw: 25% of links out mid-run.  Every scheme
     must still deliver each chunk to each receiver exactly once, with
     a lint-clean trace (SIM007: nothing reserved on a down pair), and
     PEEL must have re-peeled at least once. *)
  let chunks = 8 in
  List.iter
    (fun scheme ->
      let fabric =
        Fabric.leaf_spine ~spines:4 ~leaves:8 ~hosts_per_leaf:2
          ~gpus_per_host:2 ()
      in
      let spec = Spec.single fabric (Rng.create 1600) ~scale:16 ~bytes:8e6 in
      let name = Failover.scheme_to_string scheme in
      let _, clean = traced_failover fabric scheme spec in
      let ids =
        Fabric.fail_random fabric ~rng:(Rng.create 2026) ~tier:`All
          ~fraction:0.25 ()
      in
      List.iter (Fabric.recover_link fabric) ids;
      let faults = Fault.schedule_of_failures ~at:(0.4 *. clean) ids in
      let trace, failed = traced_failover ~faults fabric scheme spec in
      let c = Trace.counters trace in
      let expected = chunks * List.length spec.Spec.dests in
      Alcotest.(check int) (name ^ ": chunks conserved") expected
        c.Trace.deliveries;
      Alcotest.(check bool) (name ^ ": failures bite") true (failed > clean);
      Alcotest.(check (list string))
        (name ^ ": check_trace clean (SIM007 incl.)")
        []
        (List.map Peel_check.Diagnostic.to_string
           (Peel_check.Check_sim.check_trace ~expected_deliveries:expected
              trace));
      if scheme = Failover.Peel then
        Alcotest.(check bool) "peel replans" true (c.Trace.replans >= 1))
    Failover.all_schemes

let test_recovery_restores_links () =
  (* A fail+recover schedule must leave the fabric exactly as it was. *)
  let fabric = failover_fabric () in
  let g = Fabric.graph fabric in
  let spec = spec_for fabric ~scale:8 in
  let _, clean = traced_failover fabric Failover.Peel spec in
  let ids =
    Fabric.fail_random fabric ~rng:(Rng.create 3) ~tier:`All ~fraction:0.1 ()
  in
  List.iter (Fabric.recover_link fabric) ids;
  let faults =
    Fault.schedule_of_failures ~at:(0.3 *. clean) ~recover_at:(0.7 *. clean)
      ids
  in
  let _, _ = traced_failover ~faults fabric Failover.Peel spec in
  List.iter
    (fun id ->
      Alcotest.(check bool) "link up after recovery" true
        (Graph.link_up g id
        && Graph.link_up g (Graph.peer_link id)))
    ids

(* Plain [Broadcast.launch] picks its routes at launch and retries a
   hop whose link is down (or fails under the chunk) after the RTO, so
   every scheme stalls through an outage and completes once the links
   recover.  Here all eight spine-leaf pairs go down mid-broadcast and
   come back 1 ms later. *)
let test_plain_launch_rides_out_outage () =
  let chunks = 8 in
  let fabric = Fabric.leaf_spine ~spines:2 ~leaves:4 ~hosts_per_leaf:2 ~gpus_per_host:2 () in
  let g = Fabric.graph fabric in
  let spine v = (Graph.node g v).Graph.kind = Graph.Spine in
  let uplinks =
    List.filter
      (fun id ->
        let l = Graph.link g id in
        spine l.Graph.src || spine l.Graph.dst)
      (Array.to_list (Graph.duplex_ids g))
  in
  Alcotest.(check int) "spine-leaf pairs" 8 (List.length uplinks);
  let spec = { (spec_for fabric ~scale:12) with Spec.bytes = 8e6 } in
  let run ?faults scheme =
    let trace = Trace.create ~level:Trace.Full () in
    let out =
      Runner.run_custom ~chunks ~trace ?faults fabric [ spec ]
        ~launch:(fun engine links paths cfg ~spec ~on_complete ->
          Broadcast.launch engine links fabric paths cfg scheme ~spec ~on_complete)
    in
    (trace, List.hd out.Runner.ccts)
  in
  List.iter
    (fun scheme ->
      let name = Scheme.to_string scheme in
      let _, clean = run scheme in
      let at = 0.4 *. clean in
      let faults = Fault.schedule_of_failures ~at ~recover_at:(at +. 1e-3) uplinks in
      let trace, cct = run ~faults scheme in
      let c = Trace.counters trace in
      let expected = chunks * List.length spec.Spec.dests in
      Alcotest.(check int) (name ^ ": chunks conserved") expected c.Trace.deliveries;
      Alcotest.(check bool) (name ^ ": drops traced") true (c.Trace.drops > 0);
      Alcotest.(check bool) (name ^ ": waits out the outage") true (cct > at +. 1e-3);
      Alcotest.(check (list string))
        (name ^ ": check_trace clean (SIM007 incl.)")
        []
        (List.map Peel_check.Diagnostic.to_string
           (Peel_check.Check_sim.check_trace ~expected_deliveries:expected trace)))
    Scheme.[ Ring; Btree; Peel; Optimal ]

let test_scheme_of_string () =
  List.iter
    (fun scheme ->
      Alcotest.(check bool) "round-trips" true
        (Failover.scheme_of_string (Failover.scheme_to_string scheme)
        = Some scheme))
    Failover.all_schemes;
  Alcotest.(check bool) "btree alias" true
    (Failover.scheme_of_string "btree" = Some Failover.Btree);
  Alcotest.(check bool) "unknown rejected" true
    (Failover.scheme_of_string "mesh" = None)

let () =
  Alcotest.run "peel_failover"
    [
      ( "fault",
        [
          Alcotest.test_case "of_list sorts stably" `Quick
            test_of_list_sorts_stably;
          Alcotest.test_case "of_list rejects bad events" `Quick
            test_of_list_rejects_bad_events;
          Alcotest.test_case "recovery validated" `Quick
            test_schedule_of_failures_validates_recovery;
          Alcotest.test_case "install applies, skips no-ops" `Quick
            test_install_applies_and_skips_noops;
        ] );
      ( "replay",
        [
          Alcotest.test_case "byte-identical replay" `Quick
            test_replay_byte_identical;
        ] );
      ( "failover",
        [
          Alcotest.test_case "all schemes complete" `Slow
            test_completes_under_failures_all_schemes;
          Alcotest.test_case "recovery restores links" `Quick
            test_recovery_restores_links;
          Alcotest.test_case "scheme names" `Quick test_scheme_of_string;
          Alcotest.test_case "plain launch rides out an outage" `Quick
            test_plain_launch_rides_out_outage;
        ] );
    ]
