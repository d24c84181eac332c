(* Tests for the two-stage refinement control plane: TCAM bookkeeping
   and eviction determinism, controller install timing and stage
   transitions, the CTRL invariant lints on good and corrupted inputs,
   the end-to-end refinement runs (conservation, the E17 bandwidth-gap
   property, bit-identical replay), a QCheck differential between the
   data plane's over-covered racks and the control plane's cover
   waste, and the new trace events' export round-trips. *)

open Peel_topology
open Peel_workload
open Peel_ctrl
module Plan = Peel.Plan
module Dataplane = Peel.Dataplane
module Trace = Peel_sim.Trace
module Engine = Peel_sim.Engine
module Json = Peel_util.Json
module Rng = Peel_util.Rng
module D = Peel_check.Diagnostic

(* The events CSV header line, as [Trace.events_csv] prints it. *)
let csv_header = "time,kind,link,node,flow,chunk,bytes,queue_delay,backlog,rate"

let ls48 () = Fabric.leaf_spine ~spines:4 ~leaves:8 ~hosts_per_leaf:2 ~gpus_per_host:2 ()

let groups_for ?(n = 4) ?(seed = 1700) ?(hold = 0.05) fabric =
  Spec.poisson_groups fabric (Rng.create seed) ~n ~scale:8
    ~bytes:8e6 ~load:0.5 ~hold ~fragmentation:0.6 ()

let strings_of ds = List.map D.to_string ds

(* The service state lint's findings under one SVC code. *)
let svc_findings code out =
  List.filter (fun (d : D.t) -> d.D.code = code) (Check_service.check_state out)

(* ------------------------------------------------------------------ *)
(* TCAM                                                                *)
(* ------------------------------------------------------------------ *)

let test_tcam_create_validates () =
  Alcotest.check_raises "capacity 0 rejected"
    (Invalid_argument "Tcam.create: capacity must be >= 1") (fun () ->
      ignore (Tcam.create ~capacity:0 ~policy:Tcam.Lru))

let test_tcam_install_and_holds () =
  let t = Tcam.create ~capacity:2 ~policy:Tcam.Lru in
  Alcotest.(check (list int)) "fits, no victims" []
    (Tcam.install t ~now:0.0 ~switch:3 ~group:7);
  Alcotest.(check bool) "holds" true (Tcam.holds t ~switch:3 ~group:7);
  Alcotest.(check bool) "other switch empty" false
    (Tcam.holds t ~switch:4 ~group:7);
  Alcotest.(check int) "used" 1 (Tcam.used t ~switch:3);
  Alcotest.(check (list int)) "reinstall is idempotent" []
    (Tcam.install t ~now:1.0 ~switch:3 ~group:7);
  Alcotest.(check int) "still one entry" 1 (Tcam.used t ~switch:3);
  Alcotest.(check int) "installs counted once" 1 (Tcam.installs t)

let test_tcam_lru_eviction () =
  let t = Tcam.create ~capacity:1 ~policy:Tcam.Lru in
  ignore (Tcam.install t ~now:0.0 ~switch:0 ~group:1);
  Alcotest.(check (list int)) "oldest evicted" [ 1 ]
    (Tcam.install t ~now:1.0 ~switch:0 ~group:2);
  Alcotest.(check bool) "victim gone" false (Tcam.holds t ~switch:0 ~group:1);
  Alcotest.(check bool) "winner present" true (Tcam.holds t ~switch:0 ~group:2);
  Alcotest.(check int) "one eviction" 1 (Tcam.evictions t)

let test_tcam_lru_recency () =
  (* Touching an entry protects it: the untouched one is the victim. *)
  let t = Tcam.create ~capacity:2 ~policy:Tcam.Lru in
  ignore (Tcam.install t ~now:0.0 ~switch:0 ~group:1);
  ignore (Tcam.install t ~now:1.0 ~switch:0 ~group:2);
  Tcam.touch t ~now:2.0 ~switch:0 ~group:1 ~bytes:10.0;
  Alcotest.(check (list int)) "least recent evicted" [ 2 ]
    (Tcam.install t ~now:3.0 ~switch:0 ~group:3)

let test_tcam_bytes_weighted () =
  (* The entry that carried the fewest bytes loses, not the oldest. *)
  let t = Tcam.create ~capacity:2 ~policy:Tcam.Bytes_weighted in
  ignore (Tcam.install t ~now:0.0 ~switch:0 ~group:1);
  ignore (Tcam.install t ~now:1.0 ~switch:0 ~group:2);
  Tcam.touch t ~now:2.0 ~switch:0 ~group:1 ~bytes:1e9;
  Tcam.touch t ~now:2.5 ~switch:0 ~group:2 ~bytes:1e3;
  Alcotest.(check (list int)) "lightest evicted" [ 2 ]
    (Tcam.install t ~now:3.0 ~switch:0 ~group:3)

let test_tcam_tie_breaks_on_group_id () =
  (* Identical stamps: the lowest group id is the deterministic victim. *)
  let t = Tcam.create ~capacity:2 ~policy:Tcam.Lru in
  ignore (Tcam.install t ~now:5.0 ~switch:0 ~group:9);
  ignore (Tcam.install t ~now:5.0 ~switch:0 ~group:4);
  Alcotest.(check (list int)) "lowest id loses the tie" [ 4 ]
    (Tcam.install t ~now:6.0 ~switch:0 ~group:7)

let test_tcam_remove_group () =
  let t = Tcam.create ~capacity:4 ~policy:Tcam.Lru in
  ignore (Tcam.install t ~now:0.0 ~switch:0 ~group:1);
  ignore (Tcam.install t ~now:0.0 ~switch:1 ~group:1);
  ignore (Tcam.install t ~now:0.0 ~switch:1 ~group:2);
  Alcotest.(check int) "both entries dropped" 2 (Tcam.remove_group t ~group:1);
  Alcotest.(check bool) "gone everywhere" false
    (Tcam.holds t ~switch:0 ~group:1 || Tcam.holds t ~switch:1 ~group:1);
  Alcotest.(check int) "departures are not evictions" 0 (Tcam.evictions t);
  Alcotest.(check (list (pair int int))) "occupancy sorted" [ (0, 0); (1, 1) ]
    (Tcam.occupancy t)

let test_tcam_max_used () =
  let t = Tcam.create ~capacity:3 ~policy:Tcam.Lru in
  ignore (Tcam.install t ~now:0.0 ~switch:0 ~group:1);
  ignore (Tcam.install t ~now:0.0 ~switch:0 ~group:2);
  ignore (Tcam.remove_group t ~group:1);
  ignore (Tcam.remove_group t ~group:2);
  Alcotest.(check int) "high-water survives removal" 2 (Tcam.max_used t);
  Alcotest.(check int) "tables are empty" 0 (Tcam.used t ~switch:0)

(* ------------------------------------------------------------------ *)
(* Controller                                                          *)
(* ------------------------------------------------------------------ *)

let cfg ?(rpc = 1e-3) ?(per_rule = 10e-6) ?(capacity = 8) () =
  { Controller.default_config with Controller.rpc; per_rule; capacity }

let test_controller_install_latency () =
  let c = Controller.create (cfg ()) in
  Alcotest.(check (float 1e-12)) "rpc + n * per_rule" 1.05e-3
    (Controller.install_latency c ~nrules:5)

let stage_string = function
  | Controller.Static -> "static"
  | Controller.Refined -> "refined"

let test_controller_stage_transition () =
  let c = Controller.create (cfg ()) in
  let e = Engine.create () in
  Controller.admit c e ~gid:1 ~at:0.0 ~switches:[ (10, 2); (11, 3) ] ~cost:6;
  Alcotest.(check string) "static before installs land" "static"
    (stage_string (Controller.stage c ~gid:1));
  Engine.run e;
  Alcotest.(check string) "refined after" "refined"
    (stage_string (Controller.stage c ~gid:1));
  Alcotest.(check int) "two entries installed" 2 (Controller.installs c);
  Alcotest.(check string) "unknown group is static" "static"
    (stage_string (Controller.stage c ~gid:99))

let test_controller_no_tcam_stays_static () =
  let c = Controller.create (cfg ~capacity:0 ()) in
  let e = Engine.create () in
  Controller.admit c e ~gid:1 ~at:0.0 ~switches:[ (10, 2) ] ~cost:2;
  Engine.run e;
  Alcotest.(check string) "capacity <= 0 disables refinement" "static"
    (stage_string (Controller.stage c ~gid:1));
  Alcotest.(check bool) "no table exists" true (Controller.tcam c = None)

let test_controller_release_cancels_install () =
  let c = Controller.create (cfg ()) in
  let e = Engine.create () in
  Controller.admit c e ~gid:1 ~at:0.0 ~switches:[ (10, 2) ] ~cost:2;
  Controller.release c ~gid:1;
  Engine.run e;
  Alcotest.(check string) "departed group never refines" "static"
    (stage_string (Controller.stage c ~gid:1));
  match Controller.tcam c with
  | None -> Alcotest.fail "tcam expected"
  | Some t -> Alcotest.(check int) "no entry landed" 0 (Tcam.used t ~switch:10)

let test_controller_duplicate_admit_raises () =
  let c = Controller.create (cfg ()) in
  let e = Engine.create () in
  Controller.admit c e ~gid:1 ~at:0.0 ~switches:[ (10, 2) ] ~cost:2;
  Alcotest.(check bool) "duplicate gid rejected" true
    (try
       Controller.admit c e ~gid:1 ~at:1.0 ~switches:[ (11, 2) ] ~cost:2;
       false
     with Invalid_argument _ -> true)

let test_controller_budget_below_one () =
  Alcotest.check_raises "budget 0"
    (Invalid_argument "Controller.create: budget must be >= 1") (fun () ->
      ignore
        (Controller.create { (cfg ()) with Controller.budget = Some 0 }))

let test_controller_eviction_reverts_victim () =
  (* Capacity 1 on a shared switch: the second install displaces the
     first group, which must drop back to the static stage. *)
  let c = Controller.create (cfg ~capacity:1 ()) in
  let e = Engine.create () in
  Controller.admit c e ~gid:1 ~at:0.0 ~switches:[ (10, 2) ] ~cost:2;
  Controller.admit c e ~gid:2 ~at:0.5 ~switches:[ (10, 2) ] ~cost:2;
  Engine.run e;
  Alcotest.(check string) "victim back to static" "static"
    (stage_string (Controller.stage c ~gid:1));
  Alcotest.(check string) "winner refined" "refined"
    (stage_string (Controller.stage c ~gid:2));
  Alcotest.(check int) "one eviction" 1 (Controller.evictions c)

(* ------------------------------------------------------------------ *)
(* CTRL lints on good and corrupted inputs                             *)
(* ------------------------------------------------------------------ *)

let some_members fabric =
  let eps = Fabric.endpoints fabric in
  List.init 8 (fun i -> eps.(4 * i))

let test_check_refined_cover_clean () =
  let f = ls48 () in
  let members = some_members f in
  let source = List.hd members in
  let tree = Peel.multicast_tree f ~source ~dests:(List.tl members) in
  Alcotest.(check (list string)) "exact entries lint clean" []
    (strings_of (Check_ctrl.check_refined_cover f ~group:0 ~members ~tree))

let test_check_refined_cover_catches_mismatch () =
  let f = ls48 () in
  let members = some_members f in
  (* A tree spanning all the members, checked against a member list
     missing one rack's endpoints: the cover is no longer exact. *)
  let source = List.hd members in
  let tree = Peel.multicast_tree f ~source ~dests:(List.tl members) in
  let claimed = List.filteri (fun i _ -> i < List.length members - 2) members in
  let ds = Check_ctrl.check_refined_cover f ~group:0 ~members:claimed ~tree in
  Alcotest.(check bool) "CTRL001 on a bad member list" true
    (ds <> []
    && List.for_all (fun d -> d.D.code = "CTRL001") ds)

(* Every text CTRL001 can emit, pinned with its location: a tree over
   six member racks checked against four of them plus a seventh.  The
   exact-entry check cannot fail here, because the checker builds the
   entry from the very members it verifies it against. *)
let test_check_refined_cover_texts () =
  let f = ls48 () in
  let members = some_members f in
  let tree =
    Peel.multicast_tree f ~source:(List.hd members)
      ~dests:(List.filteri (fun i _ -> i >= 1 && i < 6) members)
  in
  let claimed = List.filteri (fun i _ -> i < 4 || i = 6) members in
  Alcotest.(check (list string)) "CTRL001 texts"
    [
      "error[CTRL001] group 3: refined tree touches rack 4, which houses no \
       member";
      "error[CTRL001] group 3: refined tree touches rack 5, which houses no \
       member";
      "error[CTRL001] group 3: refined tree misses member rack 6";
    ]
    (strings_of (Check_ctrl.check_refined_cover f ~group:3 ~members:claimed ~tree))

let test_check_budget () =
  let t = Tcam.create ~capacity:2 ~policy:Tcam.Lru in
  ignore (Tcam.install t ~now:0.0 ~switch:0 ~group:1);
  ignore (Tcam.install t ~now:0.0 ~switch:0 ~group:2);
  Alcotest.(check (list string)) "at capacity is fine" []
    (strings_of (Check_ctrl.check_budget t))

let test_check_handoff () =
  let good =
    { Check_ctrl.h_gid = 0; h_ndests = 3; h_chunks = 4; h_static = 1;
      h_refined = 3; h_deliveries = 12 }
  in
  Alcotest.(check (list string)) "conserving handoff is clean" []
    (strings_of (Check_ctrl.check_handoff [ good ]));
  let lost = { good with Check_ctrl.h_refined = 2 } in
  let dup = { good with Check_ctrl.h_deliveries = 13 } in
  let ds = Check_ctrl.check_handoff [ good; lost; dup ] in
  Alcotest.(check int) "both violations caught" 2 (List.length ds);
  Alcotest.(check bool) "all CTRL003" true
    (List.for_all (fun d -> d.D.code = "CTRL003") ds)

let test_check_replay_mismatch () =
  Alcotest.(check (list string)) "identical digests pass" []
    (strings_of (Check_ctrl.check_replay ~first:"abc" ~second:"abc"));
  let ds = Check_ctrl.check_replay ~first:"abc" ~second:"abd" in
  Alcotest.(check bool) "CTRL004 on divergence" true
    (ds <> [] && List.for_all (fun d -> d.D.code = "CTRL004") ds)

let test_check_trace_ordering () =
  let good = Trace.create ~level:Trace.Full () in
  Trace.rule_install good ~time:1.0 ~group:5 ~switch:2 ~rules:3;
  Trace.refine good ~time:1.0 ~group:5 ~cost:7;
  Trace.evict good ~time:2.0 ~group:5 ~switch:2;
  Alcotest.(check (list string)) "install -> refine -> evict is legal" []
    (strings_of (Check_ctrl.check_trace good));
  let bad = Trace.create ~level:Trace.Full () in
  Trace.refine bad ~time:1.0 ~group:5 ~cost:7;
  let ds = Check_ctrl.check_trace bad in
  Alcotest.(check bool) "CTRL005 on refine without installs" true
    (ds <> [] && List.for_all (fun d -> d.D.code = "CTRL005") ds);
  let bad2 = Trace.create ~level:Trace.Full () in
  Trace.evict bad2 ~time:1.0 ~group:5 ~switch:2;
  Alcotest.(check bool) "CTRL005 on evict without install" true
    (Check_ctrl.check_trace bad2 <> [])

(* ------------------------------------------------------------------ *)
(* End-to-end refinement runs                                          *)
(* ------------------------------------------------------------------ *)

let run_scheme ?(rpc = 0.2e-3) ?(capacity = 8) fabric groups scheme =
  let trace = Trace.create ~level:Trace.Counters () in
  let cfg =
    { Controller.default_config with Controller.rpc; per_rule = 10e-6;
      capacity }
  in
  let out = Refine.run ~chunks:8 ~cfg ~trace fabric scheme groups in
  (out, Trace.counters trace)

let test_refine_conserves_chunks () =
  let f = ls48 () in
  let groups = groups_for f in
  List.iter
    (fun scheme ->
      let out, _ = run_scheme f groups scheme in
      Alcotest.(check (list string))
        (Refine.scheme_to_string scheme ^ " handoffs conserve")
        []
        (strings_of (Check_ctrl.check_handoff out.Refine.handoffs));
      List.iter
        (fun (r : Refine.report) ->
          Alcotest.(check int)
            (Printf.sprintf "group %d delivered everywhere" r.Refine.r_gid)
            (r.Refine.r_chunks * r.Refine.r_ndests)
            r.Refine.r_deliveries)
        out.Refine.reports)
    Refine.all_schemes

let test_refine_closes_bandwidth_gap () =
  (* The E17 acceptance property: with over-covering static plans and a
     fast controller, refined PEEL moves strictly fewer link bytes than
     static; the gap shrinks as install latency grows. *)
  let f = ls48 () in
  let groups = groups_for f in
  let static_out, sc = run_scheme f groups Refine.Peel_static in
  Alcotest.(check bool) "schedule over-covers" true
    (Refine.total_overcover_bytes static_out > 0.0);
  let _, fast = run_scheme ~rpc:0.2e-3 f groups Refine.Peel_refined in
  let _, slow = run_scheme ~rpc:2e-3 f groups Refine.Peel_refined in
  Alcotest.(check bool) "refined strictly under static" true
    (fast.Trace.bytes_reserved < sc.Trace.bytes_reserved);
  Alcotest.(check bool) "gap shrinks with install latency" true
    (slow.Trace.bytes_reserved >= fast.Trace.bytes_reserved);
  Alcotest.(check bool) "slow refined never exceeds static" true
    (slow.Trace.bytes_reserved <= sc.Trace.bytes_reserved)

let test_refine_static_never_refines () =
  let f = ls48 () in
  let groups = groups_for f in
  let out, _ = run_scheme f groups Refine.Peel_static in
  Alcotest.(check int) "no refined chunks" 0 (Refine.refined_chunks out);
  Alcotest.(check int) "no installs" 0 (Controller.installs out.Refine.controller)

let test_refine_ipmc_no_overcover () =
  let f = ls48 () in
  let groups = groups_for f in
  let out, _ = run_scheme f groups Refine.Ipmc in
  Alcotest.(check (float 0.0)) "ipmc wastes nothing" 0.0
    (Refine.total_overcover_bytes out);
  Alcotest.(check int) "every chunk on exact rules"
    (Refine.static_chunks out + Refine.refined_chunks out)
    (Refine.refined_chunks out)

let test_refine_replay_bit_identical () =
  let f = ls48 () in
  let groups = groups_for f in
  let a, _ = run_scheme f groups Refine.Peel_refined in
  let b, _ = run_scheme f groups Refine.Peel_refined in
  Alcotest.(check string) "CTRL004 digest" a.Refine.fingerprint
    b.Refine.fingerprint;
  Alcotest.(check (list string)) "check_replay agrees" []
    (strings_of
       (Check_ctrl.check_replay ~first:a.Refine.fingerprint
          ~second:b.Refine.fingerprint))

let test_refine_eviction_pressure () =
  (* Capacity 1 with long-lived groups forces evictions; conservation
     and the budget invariant must hold regardless. *)
  let f = ls48 () in
  let groups = groups_for ~n:8 ~hold:0.5 f in
  let out, _ = run_scheme ~capacity:1 f groups Refine.Peel_refined in
  Alcotest.(check (list string)) "handoffs conserve under churn" []
    (strings_of (Check_ctrl.check_handoff out.Refine.handoffs));
  (match Controller.tcam out.Refine.controller with
  | None -> Alcotest.fail "tcam expected"
  | Some t ->
      Alcotest.(check (list string)) "budget never exceeded" []
        (strings_of (Check_ctrl.check_budget t));
      Alcotest.(check int) "high-water at capacity" 1 (Tcam.max_used t))

(* ------------------------------------------------------------------ *)
(* Differential: data-plane over-cover vs. control-plane cover waste   *)
(* ------------------------------------------------------------------ *)

let overcover_differential =
  QCheck.Test.make ~name:"over_covered racks = union of cover waste" ~count:100
    QCheck.(triple (int_bound 9999) (int_range 2 20) (int_range 1 3))
    (fun (seed, nmembers, budget) ->
      let f = ls48 () in
      let eps = Fabric.endpoints f in
      let rng = Rng.create seed in
      let members =
        List.init nmembers (fun _ -> eps.(Rng.int rng (Array.length eps)))
        |> List.sort_uniq compare
      in
      match members with
      | [] | [ _ ] -> QCheck.assume_fail ()
      | source :: dests ->
          let plan = Plan.build ~budget f ~source ~dests in
          let from_dataplane = Dataplane.over_covered f plan in
          let from_cover =
            List.concat_map (fun p -> p.Plan.waste_tors) plan.Plan.packets
            |> List.sort_uniq compare
          in
          from_dataplane = from_cover)

(* ------------------------------------------------------------------ *)
(* New trace events: export round-trips                                *)
(* ------------------------------------------------------------------ *)

let ctrl_trace () =
  let t = Trace.create ~level:Trace.Full () in
  Trace.rule_install t ~time:0.5 ~group:3 ~switch:42 ~rules:4;
  Trace.rule_install t ~time:0.6 ~group:3 ~switch:43 ~rules:2;
  Trace.refine t ~time:0.6 ~group:3 ~cost:9;
  Trace.evict t ~time:1.5 ~group:3 ~switch:42;
  t

let parse_ok s =
  match Json.parse s with
  | Ok v -> v
  | Error e -> Alcotest.fail ("JSON parse failed: " ^ e)

let test_ctrl_event_counters () =
  let t = ctrl_trace () in
  let c = Trace.counters t in
  Alcotest.(check int) "rule_installs" 2 c.Trace.rule_installs;
  Alcotest.(check int) "refines" 1 c.Trace.refines;
  Alcotest.(check int) "evictions" 1 c.Trace.evictions;
  let v = parse_ok (Json.to_string (Trace.counters_to_json t)) in
  let get k =
    match Option.bind (Json.member k v) Json.get_num with
    | Some x -> int_of_float x
    | None -> Alcotest.fail ("missing counter " ^ k)
  in
  Alcotest.(check int) "json rule_installs" 2 (get "rule_installs");
  Alcotest.(check int) "json refines" 1 (get "refines");
  Alcotest.(check int) "json evictions" 1 (get "evictions")

let test_ctrl_event_json_roundtrip () =
  let t = ctrl_trace () in
  let v = parse_ok (Json.to_string (Trace.events_to_json t)) in
  match Json.get_arr v with
  | None -> Alcotest.fail "events JSON is not an array"
  | Some evs ->
      let kind ev =
        match Option.bind (Json.member "kind" ev) Json.get_str with
        | Some k -> k
        | None -> Alcotest.fail "event without kind"
      in
      Alcotest.(check (list string)) "kinds in emit order"
        [ "rule_install"; "rule_install"; "refine"; "evict" ]
        (List.map kind evs);
      let field ev k =
        match Option.bind (Json.member k ev) Json.get_num with
        | Some x -> int_of_float x
        | None -> Alcotest.fail ("missing field " ^ k)
      in
      (match evs with
      | [ ri; _; rf; ev ] ->
          Alcotest.(check int) "install group" 3 (field ri "group");
          Alcotest.(check int) "install switch" 42 (field ri "switch");
          Alcotest.(check int) "install rules" 4 (field ri "rules");
          Alcotest.(check int) "refine cost" 9 (field rf "cost");
          Alcotest.(check int) "evict switch" 42 (field ev "switch")
      | _ -> Alcotest.fail "expected four events")

let test_ctrl_event_csv () =
  let t = ctrl_trace () in
  let csv = Trace.events_csv t in
  let lines = String.split_on_char '\n' (String.trim csv) in
  Alcotest.(check int) "header + one line per event" 5 (List.length lines);
  let cols = List.length (String.split_on_char ',' csv_header) in
  List.iter
    (fun line ->
      Alcotest.(check int) "column count" cols
        (List.length (String.split_on_char ',' line)))
    lines

let test_ctrl_events_lint_clean () =
  (* The SIM006 structural lint accepts well-formed control events. *)
  let t = ctrl_trace () in
  Alcotest.(check (list string)) "check_trace clean" []
    (strings_of (Peel_check.Check_sim.check_trace t))

(* ------------------------------------------------------------------ *)
(* Service: open-loop multicast-as-a-service                           *)
(* ------------------------------------------------------------------ *)

let service_tenants =
  [
    Stream.tenant ~rate:400.0 ~scale:6 ~bytes:1e6 ~hold:0.5 ~churn:80.0
      ~sends:40.0 ();
    Stream.tenant ~rate:150.0 ~scale:10 ~bytes:4e6 ~hold:0.3 ~churn:30.0
      ~sends:20.0 ~fragmentation:0.5 ();
  ]

let run_service ?(capacity = 64) ?(admission = Service.Evict) ?(events = 800)
    ?(seed = 11) () =
  let fabric = ls48 () in
  let stream =
    Stream.create fabric (Rng.create seed) ~tenants:service_tenants ()
  in
  let cfg = { Service.default_config with Service.capacity; admission } in
  Service.run ~cfg fabric ~events stream

let test_service_same_seed_replay () =
  (* The SVC005 contract: two runs of one stream log byte-identical
     decisions. *)
  let o1 = run_service () in
  let o2 = run_service () in
  Alcotest.(check string) "fingerprints agree" o1.Service.o_fingerprint
    o2.Service.o_fingerprint;
  Alcotest.(check (list string)) "replay lint clean" []
    (strings_of
       (Check_service.check_replay ~first:o1.Service.o_fingerprint
          ~second:o2.Service.o_fingerprint));
  Alcotest.(check (list string)) "state lint clean" []
    (strings_of (Check_service.check_state o2))

let test_service_delta_repeel_dominates () =
  (* The point of the tentpole: membership churn is absorbed by
     splicing, not by re-running the full peel per delta. *)
  let out = run_service () in
  let s = out.Service.o_slo in
  Alcotest.(check bool) "saw real churn" true (s.Service.delta_repeels > 100);
  Alcotest.(check int) "full peels = creates + fallbacks"
    (s.Service.creates + s.Service.splice_fallbacks)
    s.Service.full_repeels

(* Property (satellite 3): under TCAM saturation, installed state never
   exceeds the budget, displaced/denied groups degrade to the unicast
   fallback, and no rule for a departed group survives — across random
   seeds, tiny capacities and both admission policies. *)
let prop_service_saturation =
  QCheck.Test.make ~name:"service: saturation honors budget and fallback"
    ~count:25
    QCheck.(pair (int_range 0 100000) bool)
    (fun (seed, evict) ->
      let admission = if evict then Service.Evict else Service.Deny in
      let capacity = 1 + (seed mod 3) in
      let out = run_service ~capacity ~admission ~events:400 ~seed () in
      let s = out.Service.o_slo in
      let budget_ok =
        match out.Service.o_tcam with
        | None -> false
        | Some tc ->
            Tcam.max_used tc <= capacity
            && List.for_all
                 (fun (_, used) -> used <= capacity)
                 (Tcam.occupancy tc)
      in
      let policy_ok =
        match admission with
        | Service.Evict -> s.Service.denials = 0
        | Service.Deny -> s.Service.evictions = 0
      in
      let no_departed_rules =
        match out.Service.o_tcam with
        | None -> true
        | Some tc ->
            List.for_all
              (fun (sw, _) ->
                List.for_all
                  (fun gid -> not (Hashtbl.mem out.Service.o_departed gid))
                  (Tcam.groups_at tc ~switch:sw))
              (Tcam.occupancy tc)
      in
      let fallback_unicast =
        (* Every live group parked on the fallback path holds no entry
           anywhere — its sends must ride unicast. *)
        match out.Service.o_tcam with
        | None -> true
        | Some tc ->
            Group_table.fold
              (fun acc slot ->
                let gid = Group_table.gid out.Service.o_groups slot in
                acc
                && (Group_table.stage out.Service.o_groups slot
                    <> Service.Fallback
                   || List.for_all
                        (fun (sw, _) ->
                          not (Tcam.holds tc ~switch:sw ~group:gid))
                        (Tcam.occupancy tc)))
              out.Service.o_groups true
      in
      budget_ok && policy_ok && no_departed_rules && fallback_unicast
      && Check_service.check_state out = [])

(* A budget below 1 is rejected before the first event is taken from
   the stream, not at the first flush. *)
let test_service_budget_below_one () =
  let fabric = ls48 () in
  let s = Stream.create fabric (Rng.create 11) ~tenants:service_tenants () in
  let cfg = { Service.default_config with Service.budget = Some 0 } in
  Alcotest.check_raises "budget 0"
    (Invalid_argument "Service.run: budget must be >= 1") (fun () ->
      ignore (Service.run ~cfg fabric ~events:800 s));
  Alcotest.(check int) "no event consumed" 0 (Stream.next s).Stream.ev_seq

(* A negative event count and a [jobs] below 1 are rejected before the
   first event is taken from the stream. *)
let test_service_events_below_zero () =
  let fabric = ls48 () in
  let s = Stream.create fabric (Rng.create 11) ~tenants:service_tenants () in
  Alcotest.check_raises "events -3"
    (Invalid_argument "Service.run: events must be >= 0") (fun () ->
      ignore (Service.run fabric ~events:(-3) s));
  Alcotest.check_raises "jobs 0"
    (Invalid_argument "Service.run: jobs must be >= 1") (fun () ->
      ignore (Service.run ~jobs:0 fabric ~events:800 s));
  Alcotest.(check int) "no event consumed" 0 (Stream.next s).Stream.ev_seq

let test_service_deny_fat_tree_reclaims () =
  (* Regression: on a fat-tree, a membership delta can add switches to
     an already-Installed group; only the new switches go back through
     admission, so a Deny rejection used to flip the stage to Fallback
     while the entries from the earlier install survived — violating
     the SVC003 all-or-nothing invariant.  The state lint must stay
     clean once denials start landing on re-admitted groups. *)
  let fabric = Fabric.fat_tree ~k:4 ~hosts_per_tor:2 ~gpus_per_host:2 () in
  let stream =
    Stream.create fabric (Rng.create 7) ~tenants:service_tenants ()
  in
  let cfg =
    {
      Service.default_config with
      Service.capacity = 8;
      admission = Service.Deny;
    }
  in
  let out = Service.run ~cfg fabric ~events:800 stream in
  Alcotest.(check bool) "saw denials" true
    (out.Service.o_slo.Service.denials > 0);
  Alcotest.(check (list string)) "state lint clean" []
    (strings_of (Check_service.check_state out))

let find_group out ~stage =
  let groups = out.Service.o_groups in
  let found =
    Group_table.fold
      (fun acc slot ->
        match acc with
        | Some _ -> acc
        | None ->
            if Group_table.stage groups slot = stage then Some slot else None)
      groups None
  in
  match found with
  | Some slot -> (Group_table.gid groups slot, slot)
  | None -> Alcotest.fail "expected a live group in the wanted stage"

let test_service_svc001_seeded_corruption () =
  let out = run_service () in
  let _gid, slot = find_group out ~stage:Service.Installed in
  let groups = out.Service.o_groups in
  (* Claim the group only ever had its source: the tree now touches
     racks that house no member. *)
  Group_table.set_members groups slot [ Group_table.source groups slot ];
  Alcotest.(check bool) "SVC001 diagnosed" true
    (D.has_code "SVC001" (Check_service.check_state out))

(* Every text SVC001 can emit, pinned with its location: an installed
   group's member set replaced by its source plus one endpoint in a
   rack its tree misses. *)
let test_service_svc001_texts () =
  let out = run_service () in
  let _gid, slot = find_group out ~stage:Service.Installed in
  let groups = out.Service.o_groups in
  let fabric = out.Service.o_fabric in
  let tree_members = Peel_steiner.Tree.members (Group_table.tree groups slot) in
  let outside =
    List.find
      (fun e -> not (List.mem (Fabric.attach_tor fabric e) tree_members))
      (Array.to_list (Fabric.endpoints fabric))
  in
  Group_table.set_members groups slot [ Group_table.source groups slot; outside ];
  Alcotest.(check (list string)) "SVC001 texts"
    (List.map
       (fun r ->
         Printf.sprintf
           "error[SVC001] group 1: tree touches rack %d, which houses no member" r)
       [ 0; 1; 3; 5; 7 ]
    @ [ "error[SVC001] group 1: tree misses member rack 4" ])
    (strings_of (svc_findings "SVC001" out))

let test_service_svc002_silent_by_construction () =
  (* The TCAM enforces its own budget on every install path, so the
     defensive SVC002 lint stays silent even on a saturated run. *)
  let out = run_service ~capacity:1 ~events:400 () in
  Alcotest.(check (list string)) "no budget finding" []
    (strings_of (svc_findings "SVC002" out))

let test_service_svc003_seeded_corruptions () =
  let out = run_service () in
  let gid, slot = find_group out ~stage:Service.Installed in
  let tc = Option.get out.Service.o_tcam in
  (* Drop one of the installed group's entries behind its back. *)
  Alcotest.(check bool) "entry removed" true
    (Tcam.remove_at tc
       ~switch:(List.hd (Group_table.switches out.Service.o_groups slot))
       ~group:gid);
  Alcotest.(check bool) "missing entry diagnosed" true
    (D.has_code "SVC003" (Check_service.check_state out));
  (* And the dual lie: a group claiming fallback while entries survive. *)
  let out2 = run_service () in
  let _, slot2 = find_group out2 ~stage:Service.Installed in
  Group_table.set_stage out2.Service.o_groups slot2 Service.Fallback;
  Alcotest.(check bool) "stale fallback entries diagnosed" true
    (D.has_code "SVC003" (Check_service.check_state out2))

let test_service_svc004_seeded_corruption () =
  let out = run_service () in
  let gid, _ = find_group out ~stage:Service.Installed in
  Hashtbl.replace out.Service.o_departed gid ();
  Alcotest.(check bool) "SVC004 diagnosed" true
    (D.has_code "SVC004" (Check_service.check_state out));
  Alcotest.(check bool) "the live slot is named" true
    (List.mem
       (Printf.sprintf "error[SVC004] group %d: departed group still occupies a live slot" gid)
       (strings_of (svc_findings "SVC004" out)))

let test_service_svc005_replay_codes () =
  Alcotest.(check (list string)) "equal fingerprints clean" []
    (strings_of (Check_service.check_replay ~first:"abc" ~second:"abc"));
  Alcotest.(check bool) "diverged fingerprints diagnosed" true
    (D.has_code "SVC005"
       (Check_service.check_replay ~first:"abc" ~second:"abd"))

(* ------------------------------------------------------------------ *)
(* Million-group fast path: slot table, victim heap, memo neutrality   *)
(* ------------------------------------------------------------------ *)

(* The group store reuses the most recently freed slot first, and a
   removed gid no longer resolves to any slot. *)
let test_group_table_recycles_slots () =
  (* Borrow a real tree/switches/dist triple from a live run — the
     store keeps them opaquely. *)
  let out = run_service ~events:50 () in
  let src = out.Service.o_groups in
  let slot0 =
    match
      Group_table.fold
        (fun acc s -> match acc with Some _ -> acc | None -> Some s)
        src None
    with
    | Some s -> s
    | None -> Alcotest.fail "no live group to borrow a tree from"
  in
  let tree = Group_table.tree src slot0 in
  let switches = Group_table.switches src slot0 in
  let dist = Group_table.dist src slot0 in
  let t = Group_table.create ~width:64 () in
  let add gid =
    Group_table.add t ~gid ~source:0 ~members:[ 0; 1 ] ~tree ~switches ~dist
      ~stage:Service.Pending
  in
  let s1 = add 1 in
  let s2 = add 2 in
  let s3 = add 3 in
  Alcotest.(check int) "three live" 3 (Group_table.live t);
  Alcotest.(check bool) "removed" true (Group_table.remove t ~gid:2);
  Alcotest.(check bool) "remove is not idempotent" false
    (Group_table.remove t ~gid:2);
  Alcotest.(check int) "two live" 2 (Group_table.live t);
  Alcotest.(check (option int)) "removed gid no longer resolves" None
    (Group_table.find t ~gid:2);
  let s9 = add 9 in
  Alcotest.(check int) "freed slot recycled" s2 s9;
  Alcotest.(check (option int)) "new gid resolves to the slot" (Some s9)
    (Group_table.find t ~gid:9);
  Alcotest.(check (option int)) "old gid still gone" None
    (Group_table.find t ~gid:2);
  Alcotest.(check int) "slot resolves to the new gid" 9 (Group_table.gid t s9);
  ignore (Group_table.remove t ~gid:1);
  ignore (Group_table.remove t ~gid:3);
  Alcotest.(check int) "most recently freed slot first" s3 (add 10);
  Alcotest.(check int) "then the one freed before it" s1 (add 11);
  Alcotest.(check (list int)) "gids in slot order" [ 11; 9; 10 ]
    (List.rev (Group_table.fold (fun l s -> Group_table.gid t s :: l) t []));
  Alcotest.(check bool) "duplicate gid rejected" true
    (try
       ignore (add 9);
       false
     with Invalid_argument _ -> true);
  (* A free slot's gid is -1, so no group may carry a negative one. *)
  Alcotest.(check bool) "negative gid rejected" true
    (try
       ignore (add (-1));
       false
     with Invalid_argument _ -> true);
  Alcotest.(check int) "still three live" 3 (Group_table.live t)

(* Adds group 1 with a tree built here, so the table and [w] hold its
   only references once this returns. *)
let[@inline never] add_fresh_tree t w =
  let f = ls48 () in
  let members = some_members f in
  let source = List.hd members in
  let tree = Option.get (Peel.multicast_tree f ~source ~dests:(List.tl members)) in
  Weak.set w 0 (Some tree);
  ignore
    (Group_table.add t ~gid:1 ~source ~members ~tree ~switches:[]
       ~dist:[||] ~stage:Service.Pending)

(* A removed group's tree is garbage: the freed slot keeps no pointer
   to it. *)
let test_group_table_releases_trees () =
  let t = Group_table.create ~width:(Graph.num_nodes (Fabric.graph (ls48 ()))) () in
  let w = Weak.create 1 in
  add_fresh_tree t w;
  Gc.full_major ();
  Alcotest.(check bool) "a live group's tree is kept" true (Weak.check w 0);
  Alcotest.(check bool) "removed" true (Group_table.remove t ~gid:1);
  Gc.full_major ();
  Alcotest.(check bool) "a removed group's tree is collected" false
    (Weak.check w 0);
  Alcotest.(check bool) "the freed slot has no tree" true
    (try
       ignore (Group_table.tree t 0);
       false
     with Invalid_argument _ -> true)

(* The indexed-heap victim selection must pick exactly the entry the
   old O(capacity) scan would: minimum score under the policy, ties to
   the lowest group id — over a long random mix of installs, touches
   and removals, with stamps coarsened so ties actually occur. *)
let test_tcam_heap_matches_naive_scan () =
  List.iter
    (fun policy ->
      let t = Tcam.create ~capacity:4 ~policy in
      (* Naive model of one switch: (group, last_used, bytes). *)
      let model = ref [] in
      let mscore (_, lu, by) =
        match policy with Tcam.Lru -> lu | Tcam.Bytes_weighted -> by
      in
      let state = ref 12345 in
      let rand m =
        state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
        !state mod m
      in
      for i = 1 to 3000 do
        let now = float_of_int (i / 8) in
        let g = rand 24 in
        match rand 3 with
        | 0 ->
            let expected =
              if List.exists (fun (g', _, _) -> g' = g) !model then []
              else if List.length !model < 4 then []
              else begin
                let victim =
                  List.fold_left
                    (fun acc e ->
                      match acc with
                      | None -> Some e
                      | Some b ->
                          let se = mscore e and sb = mscore b in
                          let (ge, _, _) = e and gb, _, _ = b in
                          if se < sb || (se = sb && ge < gb) then Some e
                          else acc)
                    None !model
                in
                match victim with
                | Some (gv, _, _) -> [ gv ]
                | None -> assert false
              end
            in
            Alcotest.(check (list int))
              (Printf.sprintf "victims at op %d" i)
              expected
              (Tcam.install t ~now ~switch:0 ~group:g);
            if not (List.exists (fun (g', _, _) -> g' = g) !model) then
              model :=
                (g, now, 0.0)
                :: List.filter
                     (fun (g', _, _) -> not (List.mem g' expected))
                     !model
        | 1 ->
            let bytes = float_of_int (rand 5) *. 100.0 in
            Tcam.touch t ~now ~switch:0 ~group:g ~bytes;
            model :=
              List.map
                (fun ((g', _, by) as e) ->
                  if g' = g then (g', now, by +. bytes) else e)
                !model
        | _ ->
            Alcotest.(check bool)
              (Printf.sprintf "removal presence at op %d" i)
              (List.exists (fun (g', _, _) -> g' = g) !model)
              (Tcam.remove_at t ~switch:0 ~group:g);
            model := List.filter (fun (g', _, _) -> g' <> g) !model
      done;
      Alcotest.(check int)
        (Tcam.policy_to_string policy ^ " occupancy agrees")
        (List.length !model)
        (Tcam.used t ~switch:0))
    [ Tcam.Lru; Tcam.Bytes_weighted ]

(* Departures of still-pending groups are O(1) tombstones in the
   install queue, not a List.filter over the whole backlog: with the
   flush pinned past the horizon, 10^4 pending departs complete
   instantly, and the drain neither compiles nor leaks a departed
   group's rules (SVC004). *)
let test_service_departs_pending_backlog () =
  let fabric = ls48 () in
  let tenants =
    [
      Stream.tenant ~rate:2000.0 ~scale:3 ~bytes:1e5 ~hold:1e-3 ~churn:0.0
        ~sends:0.0 ();
    ]
  in
  let stream = Stream.create fabric (Rng.create 23) ~tenants () in
  let cfg =
    {
      Service.default_config with
      Service.capacity = 64;
      batch = 1_000_000;
      install_delay = 1e9;
    }
  in
  let out = Service.run ~cfg fabric ~events:25_000 stream in
  let s = out.Service.o_slo in
  Alcotest.(check bool)
    (Printf.sprintf "enough pending departs (%d)" s.Service.departs)
    true
    (s.Service.departs >= 10_000);
  Alcotest.(check bool) "nothing flushed before the drain" true
    (s.Service.batches <= 1);
  Alcotest.(check (list string)) "state lint clean" []
    (strings_of (Check_service.check_state out))

(* The slot table + memo fast path must be observationally identical
   to the reference implementation: one replay of each (the fast path
   with and without its memo caches) on a seeded stream must give
   byte-identical decision logs and equal install and eviction counts,
   and leave an SVC001-004-clean quiescent state. *)
let service_matches_reference ~fat ~seed ~events ~capacity ~policy ~evict
    ~batch ~install_delay ~budget =
  let fabric =
    if fat then Fabric.fat_tree ~k:4 ~hosts_per_tor:2 ~gpus_per_host:2 ()
    else ls48 ()
  in
  let stream () = Stream.create fabric (Rng.create seed) ~tenants:service_tenants () in
  let run_new ~use_cache =
    let cfg =
      {
        Service.default_config with
        Service.capacity;
        policy;
        admission = (if evict then Service.Evict else Service.Deny);
        batch;
        install_delay;
        budget;
        use_cache;
      }
    in
    Service.run ~cfg fabric ~events (stream ())
  in
  let o1 = run_new ~use_cache:true in
  let onc = run_new ~use_cache:false in
  let rcfg =
    {
      Service_ref.default_config with
      Service_ref.capacity;
      policy;
      admission = (if evict then Service_ref.Evict else Service_ref.Deny);
      batch;
      install_delay;
      budget;
    }
  in
  let oref = Service_ref.run ~cfg:rcfg ~jobs:1 fabric ~events (stream ()) in
  let fp = o1.Service.o_fingerprint in
  String.equal fp onc.Service.o_fingerprint
  && String.equal fp oref.Service_ref.o_fingerprint
  && o1.Service.o_slo.Service.installs = oref.Service_ref.o_slo.Service_ref.installs
  && o1.Service.o_slo.Service.evictions = oref.Service_ref.o_slo.Service_ref.evictions
  && Check_service.check_state o1 = []

(* Random draws over every configuration axis the reference shares
   with the fast path: seeds, capacity 0 (multicast off), 1 and 2
   (saturated) or 8-64, LRU or bytes-weighted eviction, evict or deny,
   batch 1 or 8, a zero or 2 ms install delay, a one-pod and a four-pod
   fabric, and prefix budgets none, 1 and 2 (the plan memo's rack key
   must agree with a fresh [Plan.build] at every cover width). *)
let prop_service_matches_reference =
  QCheck.Test.make
    ~name:"service: fast path replays the reference bit-identically"
    ~count:40
    QCheck.(
      pair
        (quad (int_range 0 1_000_000) bool bool (int_range 0 2))
        (quad (int_range 0 3) bool bool bool))
    (fun ((seed, evict, fat, budget), (cap, bytes_weighted, batch1, no_delay)) ->
      service_matches_reference ~fat ~seed ~events:(300 + (seed mod 200))
        ~capacity:(if cap < 3 then cap else 8 + (seed mod 57))
        ~policy:(if bytes_weighted then Tcam.Bytes_weighted else Tcam.Lru)
        ~evict ~batch:(if batch1 then 1 else 8)
        ~install_delay:(if no_delay then 0.0 else 2e-3)
        ~budget:(if budget = 0 then None else Some budget))

(* The same differential on every cell of the grid the draws sample:
   both fabrics x capacity {0, 1, 2, 64} x batch {1, 8} x install delay
   {0, 2 ms} x both policies x both admissions, at the default budget. *)
let test_service_reference_grid () =
  let cells = ref 0 in
  List.iter
    (fun fat ->
      List.iter
        (fun capacity ->
          List.iter
            (fun batch ->
              List.iter
                (fun install_delay ->
                  List.iter
                    (fun policy ->
                      List.iter
                        (fun evict ->
                          incr cells;
                          if
                            not
                              (service_matches_reference ~fat ~seed:(17 + !cells)
                                 ~events:400 ~capacity ~policy ~evict ~batch
                                 ~install_delay
                                 ~budget:Service.default_config.Service.budget)
                          then
                            Alcotest.failf "cell %d diverged (fat-tree %b, capacity %d)"
                              !cells fat capacity)
                        [ true; false ])
                    [ Tcam.Lru; Tcam.Bytes_weighted ])
                [ 0.0; 2e-3 ])
            [ 1; 8 ])
        [ 0; 1; 2; 64 ])
    [ false; true ];
  Alcotest.(check int) "cells" 128 !cells

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "peel_ctrl"
    [
      ( "tcam",
        [
          Alcotest.test_case "create validates" `Quick test_tcam_create_validates;
          Alcotest.test_case "install/holds" `Quick test_tcam_install_and_holds;
          Alcotest.test_case "lru eviction" `Quick test_tcam_lru_eviction;
          Alcotest.test_case "lru recency" `Quick test_tcam_lru_recency;
          Alcotest.test_case "bytes weighted" `Quick test_tcam_bytes_weighted;
          Alcotest.test_case "deterministic ties" `Quick
            test_tcam_tie_breaks_on_group_id;
          Alcotest.test_case "remove group" `Quick test_tcam_remove_group;
          Alcotest.test_case "high-water mark" `Quick test_tcam_max_used;
        ] );
      ( "controller",
        [
          Alcotest.test_case "install latency" `Quick
            test_controller_install_latency;
          Alcotest.test_case "stage transition" `Quick
            test_controller_stage_transition;
          Alcotest.test_case "no tcam" `Quick test_controller_no_tcam_stays_static;
          Alcotest.test_case "release cancels" `Quick
            test_controller_release_cancels_install;
          Alcotest.test_case "duplicate admit" `Quick
            test_controller_duplicate_admit_raises;
          Alcotest.test_case "budget below 1" `Quick
            test_controller_budget_below_one;
          Alcotest.test_case "eviction reverts" `Quick
            test_controller_eviction_reverts_victim;
        ] );
      ( "lints",
        [
          Alcotest.test_case "refined cover clean" `Quick
            test_check_refined_cover_clean;
          Alcotest.test_case "refined cover mismatch" `Quick
            test_check_refined_cover_catches_mismatch;
          Alcotest.test_case "refined cover texts" `Quick
            test_check_refined_cover_texts;
          Alcotest.test_case "budget" `Quick test_check_budget;
          Alcotest.test_case "handoff conservation" `Quick test_check_handoff;
          Alcotest.test_case "replay digest" `Quick test_check_replay_mismatch;
          Alcotest.test_case "trace ordering" `Quick test_check_trace_ordering;
        ] );
      ( "refine",
        [
          Alcotest.test_case "conserves chunks" `Quick test_refine_conserves_chunks;
          Alcotest.test_case "closes bandwidth gap" `Quick
            test_refine_closes_bandwidth_gap;
          Alcotest.test_case "static never refines" `Quick
            test_refine_static_never_refines;
          Alcotest.test_case "ipmc no overcover" `Quick test_refine_ipmc_no_overcover;
          Alcotest.test_case "replay bit-identical" `Quick
            test_refine_replay_bit_identical;
          Alcotest.test_case "eviction pressure" `Quick
            test_refine_eviction_pressure;
        ] );
      ("differential", [ qt overcover_differential ]);
      ( "service",
        [
          Alcotest.test_case "same-seed replay" `Quick
            test_service_same_seed_replay;
          Alcotest.test_case "delta repeel dominates" `Quick
            test_service_delta_repeel_dominates;
          qt prop_service_saturation;
          Alcotest.test_case "deny reclaims on fat-tree" `Quick
            test_service_deny_fat_tree_reclaims;
          Alcotest.test_case "budget below 1" `Quick
            test_service_budget_below_one;
          Alcotest.test_case "events below 0" `Quick
            test_service_events_below_zero;
          Alcotest.test_case "svc001 corruption" `Quick
            test_service_svc001_seeded_corruption;
          Alcotest.test_case "svc001 texts" `Quick test_service_svc001_texts;
          Alcotest.test_case "svc002 silent" `Quick
            test_service_svc002_silent_by_construction;
          Alcotest.test_case "svc003 corruptions" `Quick
            test_service_svc003_seeded_corruptions;
          Alcotest.test_case "svc004 corruption" `Quick
            test_service_svc004_seeded_corruption;
          Alcotest.test_case "svc005 replay codes" `Quick
            test_service_svc005_replay_codes;
        ] );
      ( "fast-path",
        [
          Alcotest.test_case "group table recycles slots" `Quick
            test_group_table_recycles_slots;
          Alcotest.test_case "group table releases trees" `Quick
            test_group_table_releases_trees;
          Alcotest.test_case "victim heap matches naive scan" `Quick
            test_tcam_heap_matches_naive_scan;
          Alcotest.test_case "pending departs tombstoned" `Quick
            test_service_departs_pending_backlog;
          qt prop_service_matches_reference;
          Alcotest.test_case "reference grid" `Quick test_service_reference_grid;
        ] );
      ( "trace",
        [
          Alcotest.test_case "counters" `Quick test_ctrl_event_counters;
          Alcotest.test_case "events json" `Quick test_ctrl_event_json_roundtrip;
          Alcotest.test_case "events csv" `Quick test_ctrl_event_csv;
          Alcotest.test_case "sim lint clean" `Quick test_ctrl_events_lint_clean;
        ] );
    ]
