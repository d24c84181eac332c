(* Tests for the observability layer: trace conservation and
   determinism through a real simulation, the sampling knob, verbosity
   levels, DCQCN event attribution, and the JSON/CSV export
   round-trips. *)

open Peel_topology
open Peel_workload
open Peel_collective
module Trace = Peel_sim.Trace
module Json = Peel_util.Json
module Rng = Peel_util.Rng

(* The events CSV header line, as [Trace.events_csv] prints it. *)
let csv_header = "time,kind,link,node,flow,chunk,bytes,queue_delay,backlog,rate"

let fat4 () = Fabric.fat_tree ~k:4 ~hosts_per_tor:2 ~gpus_per_host:4 ()

let workload fabric ~seed ~n =
  Spec.poisson_broadcasts fabric (Rng.create seed) ~n ~scale:16 ~bytes:2e6
    ~load:0.3 ()

let chunks = 8

let traced_run ?(level = Trace.Full) ?(sample = 1) ?(seed = 5) ?(n = 3)
    ?(scheme = Scheme.Peel) () =
  let fabric = fat4 () in
  let trace = Trace.create ~level ~sample () in
  let cs = workload fabric ~seed ~n in
  let outcome = Runner.run ~chunks ~trace fabric scheme cs in
  let expected =
    chunks
    * List.fold_left
        (fun acc (c : Spec.collective) -> acc + List.length c.Spec.dests)
        0 cs
  in
  (trace, outcome, expected)

(* ------------------------------------------------------------------ *)
(* Conservation and determinism                                        *)
(* ------------------------------------------------------------------ *)

let test_conservation () =
  let trace, _, expected = traced_run () in
  let c = Trace.counters trace in
  Alcotest.(check int) "deliveries traced = chunks x receivers" expected
    c.Trace.deliveries;
  Alcotest.(check (list string))
    "check_trace clean" []
    (List.map Peel_check.Diagnostic.to_string
       (Peel_check.Check_sim.check_trace ~expected_deliveries:expected trace))

let test_conservation_all_schemes () =
  List.iter
    (fun scheme ->
      let trace, _, expected = traced_run ~scheme () in
      let c = Trace.counters trace in
      Alcotest.(check int)
        (Scheme.to_string scheme ^ " conserves chunks")
        expected c.Trace.deliveries)
    Scheme.all

let test_determinism () =
  let ta, _, _ = traced_run () and tb, _, _ = traced_run () in
  let a = Trace.counters ta and b = Trace.counters tb in
  Alcotest.(check int) "events" (Trace.num_events ta) (Trace.num_events tb);
  Alcotest.(check int) "reservations" a.Trace.reservations b.Trace.reservations;
  Alcotest.(check (float 0.0)) "bytes" a.Trace.bytes_reserved b.Trace.bytes_reserved;
  Alcotest.(check int) "deliveries" a.Trace.deliveries b.Trace.deliveries;
  Alcotest.(check int) "engine events" a.Trace.engine_events b.Trace.engine_events;
  let ea = Trace.events ta and eb = Trace.events tb in
  Array.iteri
    (fun i (ev : Trace.event) ->
      Alcotest.(check (float 0.0)) "event times match" ev.Trace.time
        eb.(i).Trace.time)
    ea

let test_monotone_timestamps () =
  let trace, _, _ = traced_run () in
  let last = ref neg_infinity in
  Array.iter
    (fun (ev : Trace.event) ->
      Alcotest.(check bool) "non-decreasing" true (ev.Trace.time >= !last);
      last := ev.Trace.time)
    (Trace.events trace)

let test_engine_counters () =
  let trace, outcome, _ = traced_run () in
  let c = Trace.counters trace in
  Alcotest.(check int) "engine events recorded" outcome.Runner.events
    c.Trace.engine_events;
  Alcotest.(check bool) "queue high-water positive" true
    (c.Trace.engine_max_pending > 0)

let test_telemetry_agrees () =
  (* The per-link detail Telemetry merges in must re-aggregate to the
     trace's own counters. *)
  let trace, outcome, _ = traced_run () in
  let c = Trace.counters trace in
  let reports = Peel_sim.Telemetry.reports outcome.Runner.telemetry in
  let sum f = Array.fold_left (fun acc r -> acc + f r) 0 reports in
  Alcotest.(check int) "reservations"
    c.Trace.reservations
    (sum (fun (r : Peel_sim.Telemetry.link_report) ->
         r.Peel_sim.Telemetry.reservations));
  Alcotest.(check int) "ecn marks" c.Trace.ecn_marks
    (sum (fun (r : Peel_sim.Telemetry.link_report) ->
         r.Peel_sim.Telemetry.ecn_marks));
  Alcotest.(check (float 1e-6)) "bytes" c.Trace.bytes_reserved
    (Array.fold_left
       (fun acc (r : Peel_sim.Telemetry.link_report) ->
         acc +. r.Peel_sim.Telemetry.bytes)
       0.0 reports)

let test_conservation_under_loss () =
  (* Lossy links exercise the repair path: every orphaned destination
     must still be delivered exactly once, and the drops/repairs must
     themselves be traced. *)
  let fabric = fat4 () in
  let trace = Trace.create () in
  let cs = workload fabric ~seed:11 ~n:2 in
  let loss = Peel_sim.Transfer.loss_model ~seed:3 ~prob:0.05 () in
  let outcome =
    Runner.run ~chunks ~trace ~loss
      ~cc:(Broadcast.Dcqcn { guard = Some 50e-6; ecn_delay = 20e-6 })
      fabric Scheme.Peel cs
  in
  let expected =
    chunks
    * List.fold_left
        (fun acc (c : Spec.collective) -> acc + List.length c.Spec.dests)
        0 cs
  in
  let c = Trace.counters trace in
  Alcotest.(check int) "conserved despite loss" expected c.Trace.deliveries;
  Alcotest.(check bool) "losses traced" true (c.Trace.drops > 0);
  Alcotest.(check bool) "repairs traced" true (c.Trace.retransmits > 0);
  Alcotest.(check (list string))
    "check_trace clean" []
    (List.map Peel_check.Diagnostic.to_string
       (Peel_check.Check_sim.check_trace ~expected_deliveries:expected trace));
  ignore outcome

(* ------------------------------------------------------------------ *)
(* Levels and sampling                                                 *)
(* ------------------------------------------------------------------ *)

let test_sampling () =
  let full, _, _ = traced_run ~sample:1 ()
  and sampled, _, _ = traced_run ~sample:4 () in
  let cf = Trace.counters full and cs = Trace.counters sampled in
  Alcotest.(check int) "counters exact under sampling" cf.Trace.reservations
    cs.Trace.reservations;
  Alcotest.(check int) "deliveries unaffected" cf.Trace.deliveries
    cs.Trace.deliveries;
  let reserve_events t =
    Array.fold_left
      (fun acc (ev : Trace.event) ->
        match ev.Trace.kind with Trace.Reserve _ -> acc + 1 | _ -> acc)
      0 (Trace.events t)
  in
  Alcotest.(check int) "reserve events + skips = reservations"
    cs.Trace.reservations
    (reserve_events sampled + Trace.sampled_out sampled);
  Alcotest.(check bool) "sampling shrinks the log" true
    (reserve_events sampled < reserve_events full)

let test_counters_level () =
  let trace, _, expected = traced_run ~level:Trace.Counters () in
  Alcotest.(check int) "no events" 0 (Trace.num_events trace);
  Alcotest.(check int) "counters still exact" expected
    (Trace.counters trace).Trace.deliveries;
  Alcotest.(check (list string))
    "check_trace clean below Full" []
    (List.map Peel_check.Diagnostic.to_string
       (Peel_check.Check_sim.check_trace ~expected_deliveries:expected trace))

let test_null_trace_untouched () =
  let fabric = fat4 () in
  let cs = workload fabric ~seed:5 ~n:2 in
  let outcome = Runner.run ~chunks fabric Scheme.Peel cs in
  Alcotest.(check bool) "null trace disabled" false
    (Trace.enabled outcome.Runner.trace);
  let c = Trace.counters Trace.null in
  Alcotest.(check int) "null counters stay zero" 0 c.Trace.deliveries;
  Alcotest.(check int) "null records nothing" 0 (Trace.num_events Trace.null)

let test_create_validates_sample () =
  Alcotest.(check bool) "sample < 1 rejected" true
    (try ignore (Trace.create ~sample:0 ()); false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* DCQCN attribution                                                   *)
(* ------------------------------------------------------------------ *)

let test_dcqcn_events () =
  let open Peel_sim in
  let trace = Trace.create () in
  let cc = Dcqcn.create ~trace ~flow:7 ~line_rate:1e9 () in
  Dcqcn.on_cnp cc ~now:0.0;
  Dcqcn.on_cnp cc ~now:1e-6;
  (* inside the 50 us guard *)
  Dcqcn.on_cnp cc ~now:1.0;
  let c = Trace.counters trace in
  Alcotest.(check int) "cnps" 3 c.Trace.cnps;
  Alcotest.(check int) "rate cuts" 2 c.Trace.rate_cuts;
  Alcotest.(check int) "guard holds" 1 c.Trace.guard_holds;
  let flows = Trace.flow_stats trace in
  match flows with
  | [ f ] ->
      Alcotest.(check int) "flow id" 7 f.Trace.f_flow;
      Alcotest.(check int) "flow cnps" 3 f.Trace.f_cnps;
      Alcotest.(check int) "flow guard holds" 1 f.Trace.f_guard_holds
  | _ -> Alcotest.fail "expected exactly one flow"

let test_flow_stats_latency () =
  let trace = Trace.create () in
  Trace.release trace ~time:1.0 ~flow:0 ~chunk:0 ~rate:1e9;
  Trace.delivery trace ~time:1.5 ~node:3 ~flow:0 ~chunk:0;
  Trace.delivery trace ~time:2.0 ~node:4 ~flow:0 ~chunk:0;
  Trace.retransmit trace ~time:2.5 ~flow:(-1) ~node:(-1);
  match Trace.flow_stats trace with
  | [ f ] ->
      Alcotest.(check int) "unattributed flow excluded" 0 f.Trace.f_flow;
      Alcotest.(check (float 1e-12)) "mean latency" 0.75
        f.Trace.f_mean_chunk_latency;
      Alcotest.(check (float 1e-12)) "max latency" 1.0 f.Trace.f_max_chunk_latency;
      Alcotest.(check (float 0.0)) "first delivery" 1.5 f.Trace.f_first_delivery;
      Alcotest.(check (float 0.0)) "last delivery" 2.0 f.Trace.f_last_delivery
  | _ -> Alcotest.fail "expected exactly one flow"

let parse_ok s =
  match Json.parse s with
  | Ok v -> v
  | Error e -> Alcotest.fail ("JSON parse failed: " ^ e)

(* ------------------------------------------------------------------ *)
(* Loss accounting: counters vs the Full event log                     *)
(* ------------------------------------------------------------------ *)

let count_kind trace p =
  Array.fold_left
    (fun acc (e : Trace.event) -> if p e.Trace.kind then acc + 1 else acc)
    0 (Trace.events trace)

let test_loss_counters_agree_with_events () =
  (* The drop/retransmit counters must equal the number of Drop and
     Retransmit events in the Full log, and every repair send (a
     hop-local selective repeat inside Transfer) must be accounted in
     [loss.retransmissions]. *)
  let fabric = fat4 () in
  let trace = Trace.create ~level:Trace.Full () in
  let cs = workload fabric ~seed:11 ~n:2 in
  let loss = Peel_sim.Transfer.loss_model ~seed:3 ~prob:0.05 () in
  let _ = Runner.run ~chunks ~trace ~loss fabric Scheme.Peel cs in
  let c = Trace.counters trace in
  Alcotest.(check bool) "drops happened" true (c.Trace.drops > 0);
  Alcotest.(check int) "drop events = drops counter" c.Trace.drops
    (count_kind trace (function Trace.Drop _ -> true | _ -> false));
  Alcotest.(check int) "retransmit events = retransmits counter"
    c.Trace.retransmits
    (count_kind trace (function Trace.Retransmit _ -> true | _ -> false));
  Alcotest.(check int) "loss model counts every repair send"
    c.Trace.retransmits loss.Peel_sim.Transfer.retransmissions

(* ------------------------------------------------------------------ *)
(* Failure events: fail / recover / replan                             *)
(* ------------------------------------------------------------------ *)

let test_failover_event_kinds_roundtrip () =
  (* Fail (then recover) a link the PEEL tree actually uses mid-run:
     the trace must carry Link_fail, Link_recover and Replan events
     whose counts match the counters and whose JSON payloads survive a
     parse round-trip. *)
  let fabric = fat4 () in
  let g = Fabric.graph fabric in
  let eps = Fabric.endpoints fabric in
  let members = Array.to_list (Array.sub eps 0 8) in
  let source = List.hd members in
  let dests = List.tl members in
  let spec =
    { Spec.id = 0; arrival = 0.0; source; dests; members; bytes = 1e6 }
  in
  let clean =
    List.hd (Failover.run fabric Failover.Peel [ spec ]).Runner.ccts
  in
  let tree =
    Option.get (Peel_steiner.Layer_peel.build g ~source ~dests)
  in
  (* Pick a tree link whose loss keeps the group connected, so the
     controller can re-peel rather than stall on a partition. *)
  let victim =
    List.find
      (fun l ->
        Graph.fail_link g l;
        let ok = Graph.connected g (source :: dests) in
        Graph.restore_all g;
        ok)
      (Peel_steiner.Tree.link_ids tree)
  in
  let faults =
    Peel_sim.Fault.schedule_of_failures ~at:(0.3 *. clean)
      ~recover_at:(0.8 *. clean) [ victim ]
  in
  let trace = Trace.create ~level:Trace.Full () in
  let out = Failover.run ~trace ~faults fabric Failover.Peel [ spec ] in
  let c = Trace.counters trace in
  Alcotest.(check int) "one fail traced" 1 c.Trace.link_fails;
  Alcotest.(check int) "one recovery traced" 1 c.Trace.link_recovers;
  Alcotest.(check bool) "controller replanned" true (c.Trace.replans >= 1);
  Alcotest.(check int) "fail events = counter" c.Trace.link_fails
    (count_kind trace (function Trace.Link_fail _ -> true | _ -> false));
  Alcotest.(check int) "recover events = counter" c.Trace.link_recovers
    (count_kind trace (function Trace.Link_recover _ -> true | _ -> false));
  Alcotest.(check int) "replan events = counter" c.Trace.replans
    (count_kind trace (function Trace.Replan _ -> true | _ -> false));
  Alcotest.(check bool) "failed run is no faster" true
    (List.hd out.Runner.ccts >= clean);
  (* JSON payloads: the failure kinds carry their link / flow / cost. *)
  let v = parse_ok (Json.to_string (Trace.events_to_json trace)) in
  let evs = Option.get (Json.get_arr v) in
  let of_kind k =
    List.filter
      (fun ev -> Option.bind (Json.member "kind" ev) Json.get_str = Some k)
      evs
  in
  let num_field ev k = Option.bind (Json.member k ev) Json.get_num in
  List.iter
    (fun ev ->
      Alcotest.(check (option (float 0.0)))
        "fail/recover carries the duplex id"
        (Some (float_of_int (victim land lnot 1)))
        (num_field ev "link"))
    (of_kind "link_fail" @ of_kind "link_recover");
  List.iter
    (fun ev ->
      Alcotest.(check bool) "replan carries flow and cost" true
        (num_field ev "flow" = Some 0.0 && num_field ev "cost" <> None))
    (of_kind "replan");
  (* The lint must accept the log, SIM007 included. *)
  Alcotest.(check (list string))
    "check_trace clean" []
    (List.map Peel_check.Diagnostic.to_string
       (Peel_check.Check_sim.check_trace
          ~expected_deliveries:(chunks * List.length dests)
          trace))

(* ------------------------------------------------------------------ *)
(* Export round-trips                                                  *)
(* ------------------------------------------------------------------ *)

let test_counters_json_roundtrip () =
  let trace, _, expected = traced_run () in
  let v = parse_ok (Json.to_string (Trace.counters_to_json trace)) in
  let get k =
    match Option.bind (Json.member k v) Json.get_num with
    | Some x -> int_of_float x
    | None -> Alcotest.fail ("missing counter " ^ k)
  in
  Alcotest.(check int) "deliveries" expected (get "deliveries");
  Alcotest.(check int) "reservations"
    (Trace.counters trace).Trace.reservations (get "reservations");
  Alcotest.(check int) "engine events"
    (Trace.counters trace).Trace.engine_events (get "engine_events")

let test_events_json_roundtrip () =
  let trace, _, _ = traced_run () in
  let v = parse_ok (Json.to_string (Trace.events_to_json trace)) in
  match Json.get_arr v with
  | None -> Alcotest.fail "events JSON is not an array"
  | Some evs ->
      Alcotest.(check int) "every event exported" (Trace.num_events trace)
        (List.length evs);
      List.iter
        (fun ev ->
          Alcotest.(check bool) "event has time" true
            (Option.bind (Json.member "t" ev) Json.get_num <> None);
          Alcotest.(check bool) "event has kind" true
            (Option.bind (Json.member "kind" ev) Json.get_str <> None))
        evs

let test_events_csv () =
  let trace, _, _ = traced_run () in
  let csv = Trace.events_csv trace in
  let lines = String.split_on_char '\n' (String.trim csv) in
  (match lines with
  | header :: _ -> Alcotest.(check string) "header" csv_header header
  | [] -> Alcotest.fail "empty CSV");
  Alcotest.(check int) "one line per event"
    (Trace.num_events trace + 1)
    (List.length lines);
  let cols = List.length (String.split_on_char ',' csv_header) in
  List.iter
    (fun line ->
      Alcotest.(check int) "column count"
        cols
        (List.length (String.split_on_char ',' line)))
    lines

let () =
  Alcotest.run "peel_trace"
    [
      ( "conservation",
        [
          Alcotest.test_case "chunks conserved" `Quick test_conservation;
          Alcotest.test_case "all schemes conserve" `Quick
            test_conservation_all_schemes;
          Alcotest.test_case "conserved under loss" `Quick
            test_conservation_under_loss;
          Alcotest.test_case "deterministic rerun" `Quick test_determinism;
          Alcotest.test_case "monotone timestamps" `Quick test_monotone_timestamps;
          Alcotest.test_case "engine counters" `Quick test_engine_counters;
          Alcotest.test_case "telemetry agrees" `Quick test_telemetry_agrees;
        ] );
      ( "levels",
        [
          Alcotest.test_case "sampling" `Quick test_sampling;
          Alcotest.test_case "counters level" `Quick test_counters_level;
          Alcotest.test_case "null trace" `Quick test_null_trace_untouched;
          Alcotest.test_case "sample validated" `Quick test_create_validates_sample;
        ] );
      ( "attribution",
        [
          Alcotest.test_case "dcqcn events" `Quick test_dcqcn_events;
          Alcotest.test_case "flow latency" `Quick test_flow_stats_latency;
        ] );
      ( "export",
        [
          Alcotest.test_case "loss counters vs events" `Quick
            test_loss_counters_agree_with_events;
          Alcotest.test_case "failover event kinds" `Quick
            test_failover_event_kinds_roundtrip;
          Alcotest.test_case "counters json" `Quick test_counters_json_roundtrip;
          Alcotest.test_case "events json" `Quick test_events_json_roundtrip;
          Alcotest.test_case "events csv" `Quick test_events_csv;
        ] );
    ]
