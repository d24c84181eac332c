(* Tests for peel_sim: event engine ordering, FIFO link reservations,
   store-and-forward transfer timing, and the DCQCN-lite guard timer. *)

open Peel_topology
open Peel_sim
module Par = Peel_collective.Par

let check_float = Alcotest.(check (float 1e-12))

(* A range check must reject NaN, which fails every comparison. *)
let check_invalid what f =
  Alcotest.(check bool) what true
    (try
       ignore (f ());
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)
(* ------------------------------------------------------------------ *)

let test_engine_order () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e 2.0 (fun () -> log := "b" :: !log);
  Engine.schedule e 1.0 (fun () -> log := "a" :: !log);
  Engine.schedule e 3.0 (fun () -> log := "c" :: !log);
  Engine.run e;
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ] (List.rev !log);
  check_float "now" 3.0 (Engine.now e);
  Alcotest.(check int) "processed" 3 (Engine.events_processed e)

let test_engine_fifo_ties () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    Engine.schedule e 1.0 (fun () -> log := i :: !log)
  done;
  Engine.run e;
  Alcotest.(check (list int)) "ties FIFO" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_engine_cascading () =
  let e = Engine.create () in
  let hits = ref 0 in
  Engine.schedule e 1.0 (fun () ->
      incr hits;
      Engine.schedule_in e 0.5 (fun () -> incr hits));
  Engine.run e;
  Alcotest.(check int) "both ran" 2 !hits;
  check_float "now" 1.5 (Engine.now e)

let test_engine_past_rejected () =
  let e = Engine.create () in
  Engine.schedule e 1.0 (fun () ->
      Alcotest.(check bool) "past raises" true
        (try Engine.schedule e 0.5 (fun () -> ()); false
         with Invalid_argument _ -> true));
  Engine.run e

let test_engine_until () =
  let e = Engine.create () in
  let hits = ref 0 in
  Engine.schedule e 1.0 (fun () -> incr hits);
  Engine.schedule e 5.0 (fun () -> incr hits);
  Engine.run ~until:2.0 e;
  Alcotest.(check int) "only first" 1 !hits;
  Alcotest.(check int) "one pending" 1 (Engine.pending e);
  Engine.run e;
  Alcotest.(check int) "drained" 2 !hits

(* An event scheduled at [now] after a bounded run (it takes the
   queue's zero-delay lane) is still bound by [until]: a run that ends
   before [now] leaves it queued, [pending] counts it, and a run that
   ends between it and a later event runs it alone. *)
let test_engine_until_holds_event_at_now () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e 1.0 (fun () -> log := "a" :: !log);
  Engine.schedule e 5.0 (fun () -> log := "c" :: !log);
  Engine.run ~until:2.0 e;
  check_float "now" 1.0 (Engine.now e);
  Engine.schedule e (Engine.now e) (fun () -> log := "b" :: !log);
  Alcotest.(check int) "pending counts it" 2 (Engine.pending e);
  Engine.run ~until:0.5 e;
  Alcotest.(check (list string)) "nothing ran" [ "a" ] (List.rev !log);
  Alcotest.(check int) "still pending" 2 (Engine.pending e);
  check_float "clock unchanged" 1.0 (Engine.now e);
  Engine.run ~until:3.0 e;
  Alcotest.(check (list string)) "due event ran" [ "a"; "b" ] (List.rev !log);
  Alcotest.(check int) "later one pending" 1 (Engine.pending e);
  Engine.run e;
  Alcotest.(check (list string)) "then in time order" [ "a"; "b"; "c" ]
    (List.rev !log);
  Alcotest.(check int) "drained" 0 (Engine.pending e)

let test_engine_nan_rejected () =
  let e = Engine.create () in
  check_invalid "schedule at nan" (fun () -> Engine.schedule e nan ignore);
  check_invalid "schedule_in nan" (fun () -> Engine.schedule_in e nan ignore);
  Alcotest.(check int) "nothing queued" 0 (Engine.pending e);
  Engine.run e;
  check_float "clock still 0" 0.0 (Engine.now e)

(* ------------------------------------------------------------------ *)
(* Link_state                                                          *)
(* ------------------------------------------------------------------ *)

let two_node_graph ?(bw = 1e9) ?(lat = 1e-6) () =
  let b = Graph.Builder.create () in
  let a = Graph.Builder.add_node b Graph.Host ~pod:0 ~idx:0 in
  let c = Graph.Builder.add_node b Graph.Host ~pod:0 ~idx:1 in
  let l = Graph.Builder.add_duplex b ~latency:lat ~bandwidth:bw a c in
  (Graph.Builder.finish b, l)

let test_link_reserve_basic () =
  let g, l = two_node_graph () in
  let ls = Link_state.create g in
  let r = Link_state.reserve ls ~link:l ~now:0.0 ~bytes:1e6 in
  check_float "start" 0.0 r.Link_state.start;
  check_float "finish" 1e-3 r.Link_state.finish;
  check_float "no queueing" 0.0 r.Link_state.queue_delay;
  check_float "arrival includes latency" (1e-3 +. 1e-6) (Link_state.arrival ls ~link:l r)

let test_link_fifo_queueing () =
  let g, l = two_node_graph () in
  let ls = Link_state.create g in
  let _ = Link_state.reserve ls ~link:l ~now:0.0 ~bytes:1e6 in
  let r2 = Link_state.reserve ls ~link:l ~now:0.0 ~bytes:1e6 in
  check_float "queued behind first" 1e-3 r2.Link_state.start;
  check_float "queue delay" 1e-3 r2.Link_state.queue_delay;
  check_float "backlog" 2e-3 (Link_state.backlog ls ~link:l ~now:0.0)

let test_link_independent_directions () =
  let g, l = two_node_graph () in
  let ls = Link_state.create g in
  let _ = Link_state.reserve ls ~link:l ~now:0.0 ~bytes:1e6 in
  let r = Link_state.reserve ls ~link:(Graph.peer_link l) ~now:0.0 ~bytes:1e6 in
  check_float "reverse direction free" 0.0 r.Link_state.queue_delay

let test_link_idle_gap () =
  let g, l = two_node_graph () in
  let ls = Link_state.create g in
  let _ = Link_state.reserve ls ~link:l ~now:0.0 ~bytes:1e6 in
  let r = Link_state.reserve ls ~link:l ~now:5.0 ~bytes:1e6 in
  check_float "starts at now after idle" 5.0 r.Link_state.start;
  check_float "busy accum" 2e-3 (Link_state.busy_seconds ls ~link:l);
  check_float "utilization" (2e-3 /. 6.0) (Link_state.utilization ls ~link:l ~horizon:6.0)

let test_link_down_rejected () =
  let g, l = two_node_graph () in
  let ls = Link_state.create g in
  Graph.fail_link g l;
  Alcotest.(check bool) "down raises" true
    (try ignore (Link_state.reserve ls ~link:l ~now:0.0 ~bytes:1.0); false
     with Invalid_argument _ -> true);
  Graph.restore_all g

let test_link_nan_rejected () =
  let g, l = two_node_graph () in
  let ls = Link_state.create g in
  check_invalid "reserve nan bytes" (fun () ->
      Link_state.reserve ls ~link:l ~now:0.0 ~bytes:nan);
  check_invalid "utilization over a nan horizon" (fun () ->
      Link_state.utilization ls ~link:l ~horizon:nan)

let test_link_reset () =
  let g, l = two_node_graph () in
  let ls = Link_state.create g in
  let _ = Link_state.reserve ls ~link:l ~now:0.0 ~bytes:1e6 in
  Link_state.reset ls;
  let r = Link_state.reserve ls ~link:l ~now:0.0 ~bytes:1e6 in
  check_float "fresh" 0.0 r.Link_state.queue_delay

(* ------------------------------------------------------------------ *)
(* Transfer                                                            *)
(* ------------------------------------------------------------------ *)

let line_fabric () =
  (* a - b - c with 1 GB/s links, 1 us latency. *)
  let b = Graph.Builder.create () in
  let na = Graph.Builder.add_node b Graph.Host ~pod:0 ~idx:0 in
  let nb = Graph.Builder.add_node b Graph.Tor ~pod:0 ~idx:0 in
  let nc = Graph.Builder.add_node b Graph.Host ~pod:0 ~idx:1 in
  let l1 = Graph.Builder.add_duplex b ~latency:1e-6 ~bandwidth:1e9 na nb in
  let l2 = Graph.Builder.add_duplex b ~latency:1e-6 ~bandwidth:1e9 nb nc in
  (Graph.Builder.finish b, na, nb, nc, l1, l2)

(* Walk one chunk over a route Par builds. *)
let walk e ls (r : Par.route) ~bytes ~start ?loss ?on_lost ~on_delivered () =
  Transfer.dag e ls r.Par.dag ~trees:r.Par.trees ~bytes ~start ?loss ?on_lost
    ~on_delivered ()

let test_unicast_store_and_forward () =
  let g, _, _, nc, l1, l2 = line_fabric () in
  let e = Engine.create () in
  let ls = Link_state.create g in
  let delivered = ref nan in
  walk e ls (Par.of_path ~deliver:nc [ l1; l2 ]) ~bytes:1e6 ~start:0.0
    ~on_delivered:(fun ~node:_ ~time -> delivered := time)
    ();
  Engine.run e;
  (* Two hops, each 1 ms serialization + 1 us propagation. *)
  check_float "arrival" (2e-3 +. 2e-6) !delivered

let test_unicast_pipeline_two_chunks () =
  let g, _, _, nc, l1, l2 = line_fabric () in
  let e = Engine.create () in
  let ls = Link_state.create g in
  let times = ref [] in
  for _ = 1 to 2 do
    walk e ls (Par.of_path ~deliver:nc [ l1; l2 ]) ~bytes:1e6 ~start:0.0
      ~on_delivered:(fun ~node:_ ~time -> times := time :: !times)
      ()
  done;
  Engine.run e;
  (match List.rev !times with
  | [ t1; t2 ] ->
      check_float "chunk1" (2e-3 +. 2e-6) t1;
      (* Chunk 2 starts on link1 at 1 ms (FIFO), reaches b at 2 ms + 1 us,
         link2 is free by then (b finished chunk1 at 2 ms): pipelined. *)
      check_float "chunk2 pipelined" (3e-3 +. 2e-6) t2
  | _ -> Alcotest.fail "expected two deliveries")

let test_unicast_empty_path () =
  (* A chunk crosses at least one link: a zero-link route is refused. *)
  check_invalid "empty path" (fun () -> Par.of_path ~deliver:0 [])

(* A chain DAG over the line fabric: na -> nb -> nc, delivering at nc. *)
let line_dag l1 l2 nc =
  {
    Soa.d_link = [| l1; l2 |];
    d_deliver = [| -1; nc |];
    d_succ_off = [| 0; 1; 1 |];
    d_succ = [| 1 |];
    d_roots = [| 0 |];
  }

let test_dag_on_reserve_hook () =
  let g, _, _, nc, l1, l2 = line_fabric () in
  let e = Engine.create () in
  let ls = Link_state.create g in
  let seen = ref [] and delivered = ref [] in
  let send () =
    Transfer.dag e ls (line_dag l1 l2 nc) ~trees:[||] ~bytes:1e6 ~start:0.0
      ~on_reserve:(fun ~link r -> seen := (link, r.Link_state.queue_delay) :: !seen)
      ~on_delivered:(fun ~node ~time -> delivered := (node, time) :: !delivered)
      ()
  in
  send ();
  send ();
  Engine.run e;
  Alcotest.(check int) "4 reservations" 4 (List.length !seen);
  let queued = List.filter (fun (_, d) -> d > 0.0) !seen in
  Alcotest.(check int) "second chunk queued once" 1 (List.length queued);
  (* The same arrivals and event count as two unicast chunks. *)
  Alcotest.(check (list (pair int (float 1e-12))))
    "deliveries" [ (nc, 2e-3 +. 2e-6); (nc, 3e-3 +. 2e-6) ] (List.rev !delivered);
  Alcotest.(check int) "two events per hop" 8 (Engine.events_processed e)

let test_path_links () =
  let g, na, nb, nc, l1, l2 = line_fabric () in
  Alcotest.(check (list int)) "path" [ l1; l2 ] (Transfer.path_links g [ na; nb; nc ]);
  Alcotest.(check bool) "broken path raises" true
    (try ignore (Transfer.path_links g [ na; nc ]); false
     with Invalid_argument _ -> true)

let test_multicast_tree_timing () =
  (* Root r with two children via a switch: r -> s; s -> a, s -> b. *)
  let b = Graph.Builder.create () in
  let r = Graph.Builder.add_node b Graph.Host ~pod:0 ~idx:0 in
  let s = Graph.Builder.add_node b Graph.Tor ~pod:0 ~idx:0 in
  let a = Graph.Builder.add_node b Graph.Host ~pod:0 ~idx:1 in
  let c = Graph.Builder.add_node b Graph.Host ~pod:0 ~idx:2 in
  let l_rs = Graph.Builder.add_duplex b ~latency:1e-6 ~bandwidth:1e9 r s in
  let l_sa = Graph.Builder.add_duplex b ~latency:1e-6 ~bandwidth:1e9 s a in
  let l_sc = Graph.Builder.add_duplex b ~latency:1e-6 ~bandwidth:1e9 s c in
  let g = Graph.Builder.finish b in
  let tree =
    Peel_steiner.Tree.of_parents g ~root:r
      ~parents:[ (s, (r, l_rs)); (a, (s, l_sa)); (c, (s, l_sc)) ]
  in
  let e = Engine.create () in
  let ls = Link_state.create g in
  let arrivals = Hashtbl.create 4 in
  walk e ls (Par.of_trees ~dests:[ s; a; c ] [ tree ]) ~bytes:1e6 ~start:0.0
    ~on_delivered:(fun ~node ~time -> Hashtbl.replace arrivals node time)
    ();
  Engine.run e;
  (* Replication at s: both children get their own link, so they arrive
     simultaneously after 2 serializations + 2 latencies. *)
  check_float "a" (2e-3 +. 2e-6) (Hashtbl.find arrivals a);
  check_float "c" (2e-3 +. 2e-6) (Hashtbl.find arrivals c);
  check_float "s" (1e-3 +. 1e-6) (Hashtbl.find arrivals s)

(* Property: unicast delivery time equals the closed-form recurrence for
   a single transfer on an idle path. *)
let prop_unicast_idle_path_closed_form =
  QCheck.Test.make ~name:"unicast timing matches closed form" ~count:50
    QCheck.(pair (float_range 1e3 1e8) (int_range 1 5))
    (fun (bytes, nlinks) ->
      let b = Graph.Builder.create () in
      let nodes =
        Array.init (nlinks + 1) (fun i ->
            Graph.Builder.add_node b Graph.Host ~pod:0 ~idx:i)
      in
      let links = ref [] in
      for i = 0 to nlinks - 1 do
        links :=
          Graph.Builder.add_duplex b ~latency:2e-6 ~bandwidth:5e8 nodes.(i)
            nodes.(i + 1)
          :: !links
      done;
      let g = Graph.Builder.finish b in
      let e = Engine.create () in
      let ls = Link_state.create g in
      let delivered = ref nan in
      walk e ls (Par.of_path ~deliver:nodes.(nlinks) (List.rev !links)) ~bytes
        ~start:0.0
        ~on_delivered:(fun ~node:_ ~time -> delivered := time)
        ();
      Engine.run e;
      let expected = float_of_int nlinks *. ((bytes /. 5e8) +. 2e-6) in
      Float.abs (!delivered -. expected) < 1e-9)

(* ------------------------------------------------------------------ *)
(* Loss / selective repeat                                             *)
(* ------------------------------------------------------------------ *)

let test_loss_model_validation () =
  Alcotest.(check bool) "bad prob" true
    (try ignore (Transfer.loss_model ~seed:1 ~prob:1.0 ()); false
     with Invalid_argument _ -> true)

let test_loss_model_nan_rejected () =
  check_invalid "nan prob" (fun () ->
      Transfer.loss_model ~seed:1 ~prob:nan ())

let test_unicast_lossless_prob_zero () =
  let g, _, _, nc, l1, l2 = line_fabric () in
  let e = Engine.create () in
  let ls = Link_state.create g in
  let loss = Transfer.loss_model ~seed:3 ~prob:0.0 () in
  let delivered = ref nan in
  walk e ls (Par.of_path ~deliver:nc [ l1; l2 ]) ~bytes:1e6 ~start:0.0 ~loss
    ~on_delivered:(fun ~node:_ ~time -> delivered := time)
    ();
  Engine.run e;
  check_float "same as lossless" (2e-3 +. 2e-6) !delivered;
  Alcotest.(check int) "no retransmissions" 0 loss.Transfer.retransmissions

let test_unicast_recovers_from_loss () =
  let g, _, _, nc, l1, l2 = line_fabric () in
  let e = Engine.create () in
  let ls = Link_state.create g in
  (* 30% loss: over 50 chunks some will drop, all must still arrive. *)
  let loss = Transfer.loss_model ~seed:5 ~prob:0.3 () in
  let count = ref 0 in
  for _ = 1 to 50 do
    walk e ls (Par.of_path ~deliver:nc [ l1; l2 ]) ~bytes:1e4 ~start:0.0 ~loss
      ~on_delivered:(fun ~node:_ ~time:_ -> incr count)
      ()
  done;
  Engine.run e;
  Alcotest.(check int) "all delivered" 50 !count;
  Alcotest.(check bool) "some retransmissions" true (loss.Transfer.retransmissions > 0)

let chain_tree () =
  (* Chain r -> s -> a. *)
  let b = Graph.Builder.create () in
  let r = Graph.Builder.add_node b Graph.Host ~pod:0 ~idx:0 in
  let s = Graph.Builder.add_node b Graph.Tor ~pod:0 ~idx:0 in
  let a = Graph.Builder.add_node b Graph.Host ~pod:0 ~idx:1 in
  let l_rs = Graph.Builder.add_duplex b ~latency:1e-6 ~bandwidth:1e9 r s in
  let l_sa = Graph.Builder.add_duplex b ~latency:1e-6 ~bandwidth:1e9 s a in
  let g = Graph.Builder.finish b in
  let tree =
    Peel_steiner.Tree.of_parents g ~root:r
      ~parents:[ (s, (r, l_rs)); (a, (s, l_sa)) ]
  in
  (g, tree, r, s, a, l_rs, l_sa)

let test_multicast_down_link_orphans_subtree () =
  (* A *failed* r->s link cannot be repaired hop-locally: both s and a
     are orphaned (end-to-end recovery is the caller's job). *)
  let g, tree, _, s, a, l_rs, _ = chain_tree () in
  let e = Engine.create () in
  let ls = Link_state.create g in
  Graph.fail_link g l_rs;
  let lost = ref [] and delivered = ref [] in
  walk e ls (Par.of_trees ~dests:[ s; a ] [ tree ]) ~bytes:1e6 ~start:0.0
    ~on_lost:(fun ~node ~time:_ -> lost := node :: !lost)
    ~on_delivered:(fun ~node ~time:_ -> delivered := node :: !delivered)
    ();
  Engine.run e;
  Graph.restore_all g;
  Alcotest.(check (list int)) "both orphaned" [ s; a ] (List.rev !lost);
  Alcotest.(check (list int)) "none delivered" [] !delivered

let test_multicast_loss_repaired_hop_locally () =
  (* Random loss is repaired by the edge's sender like unicast: every
     member still gets the chunk, repairs show in [retransmissions]. *)
  let g, tree, _, s, a, _, _ = chain_tree () in
  let e = Engine.create () in
  let ls = Link_state.create g in
  let loss = Transfer.loss_model ~seed:5 ~prob:0.3 () in
  let lost = ref 0 and delivered = ref 0 in
  for _ = 1 to 25 do
    walk e ls (Par.of_trees ~dests:[ s; a ] [ tree ]) ~bytes:1e4 ~start:0.0 ~loss
      ~on_lost:(fun ~node:_ ~time:_ -> incr lost)
      ~on_delivered:(fun ~node:_ ~time:_ -> incr delivered)
      ()
  done;
  Engine.run e;
  Alcotest.(check int) "every member delivered" (25 * 2) !delivered;
  Alcotest.(check int) "no orphans" 0 !lost;
  Alcotest.(check bool) "repairs accounted" true
    (loss.Transfer.retransmissions > 0)

let test_midflight_failure_drops_chunk () =
  (* The link fails while the chunk is in flight (between reservation
     and arrival): the epoch check catches it and the chunk is lost. *)
  let g, _, _, s, _, l_rs, _ = chain_tree () in
  let e = Engine.create () in
  let ls = Link_state.create g in
  let lost_at = ref nan and delivered = ref false in
  (* 1 MB at 1 GB/s serializes for 1 ms; kill the pair at 0.5 ms. *)
  Engine.schedule e 0.5e-3 (fun () ->
      Alcotest.(check bool) "transition applied" true
        (Link_state.set_link_up ls ~now:0.5e-3 ~duplex:l_rs ~up:false));
  walk e ls (Par.of_path ~deliver:s [ l_rs ]) ~bytes:1e6 ~start:0.0
    ~on_lost:(fun ~node:_ ~time -> lost_at := time)
    ~on_delivered:(fun ~node:_ ~time:_ -> delivered := true)
    ();
  Engine.run e;
  Graph.restore_all g;
  Alcotest.(check bool) "not delivered" false !delivered;
  check_float "lost at the would-be arrival" (1e-3 +. 1e-6) !lost_at

let test_on_lost_dag_order () =
  (* r -> s, then s -> t -> {u -> b, a} and s -> c; a, b and c are the
     destinations.  The pair s-t fails while the chunk crosses it.
     [on_lost] must hear of b and a, the destinations below that link,
     in DAG order, once each, at the would-be arrival: Failover
     schedules one repair per report, so this order is the repairs'
     tie order.  The other branch still delivers.  Without [on_lost]
     the edge retries, and a and b get the chunk once the pair is back
     up. *)
  let run ~repair =
    let bld = Graph.Builder.create () in
    let node kind idx = Graph.Builder.add_node bld kind ~pod:0 ~idx in
    let r = node Graph.Host 0 and s = node Graph.Tor 0 and t = node Graph.Tor 1 in
    let u = node Graph.Tor 2 and a = node Graph.Host 1 and b = node Graph.Host 2 in
    let c = node Graph.Host 3 in
    let link x y = Graph.Builder.add_duplex bld ~latency:1e-6 ~bandwidth:1e9 x y in
    let l_rs = link r s and l_st = link s t and l_ta = link t a in
    let l_tu = link t u and l_ub = link u b and l_sc = link s c in
    let g = Graph.Builder.finish bld in
    let tree =
      Peel_steiner.Tree.of_parents g ~root:r
        ~parents:
          [
            (s, (r, l_rs)); (t, (s, l_st)); (a, (t, l_ta)); (u, (t, l_tu));
            (b, (u, l_ub)); (c, (s, l_sc));
          ]
    in
    let e = Engine.create () in
    let ls = Link_state.create g in
    (* s-t carries the chunk from 1.001 ms to 2.002 ms. *)
    Engine.schedule e 1.5e-3 (fun () ->
        ignore (Link_state.set_link_up ls ~now:1.5e-3 ~duplex:l_st ~up:false));
    Engine.schedule e 3e-3 (fun () ->
        ignore (Link_state.set_link_up ls ~now:3e-3 ~duplex:l_st ~up:true));
    let lost = ref [] and delivered = ref [] in
    let on_lost =
      if repair then Some (fun ~node ~time -> lost := (node, time) :: !lost) else None
    in
    walk e ls (Par.of_trees ~dests:[ a; b; c ] [ tree ]) ~bytes:1e6 ~start:0.0 ?on_lost
      ~on_delivered:(fun ~node ~time -> delivered := (node, time) :: !delivered)
      ();
    Engine.run e;
    (a, b, c, List.rev !lost, List.rev !delivered)
  in
  let arrive2 = 2.0 *. (1e-3 +. 1e-6) in
  let a, b, c, lost, delivered = run ~repair:true in
  (* t's children are u, then a (node id order), so the DAG visits b
     before a, against id order. *)
  Alcotest.(check (list (pair int (float 1e-12))))
    "b then a, at the would-be arrival" [ (b, arrive2); (a, arrive2) ] lost;
  Alcotest.(check (list (pair int (float 1e-12)))) "c still delivered" [ (c, arrive2) ] delivered;
  let a, b, c, lost, delivered = run ~repair:false in
  Alcotest.(check int) "no reports" 0 (List.length lost);
  Alcotest.(check (list int)) "each delivered once" [ c; a; b ] (List.map fst delivered);
  List.iter
    (fun (node, time) ->
      if node <> c then
        Alcotest.(check bool) "after the pair recovers" true (time > 3e-3))
    delivered

(* ------------------------------------------------------------------ *)
(* DCQCN                                                               *)
(* ------------------------------------------------------------------ *)

let test_dcqcn_initial_rate () =
  let d = Dcqcn.create ~line_rate:1e9 () in
  check_float "line rate" 1e9 (Dcqcn.rate d ~now:0.0)

let test_dcqcn_cut_and_recover () =
  let d = Dcqcn.create ~line_rate:1e9 () in
  Dcqcn.on_cnp d ~now:0.0;
  check_float "halved" 5e8 (Dcqcn.rate d ~now:0.0);
  (* Full recovery takes 2 ms; after 1 ms we regain half the line rate. *)
  check_float "recovering" 1e9 (Dcqcn.rate d ~now:1e-3);
  Alcotest.(check int) "one cut" 1 (Dcqcn.cuts d)

let test_dcqcn_guard_suppresses_burst () =
  let d = Dcqcn.create ~line_rate:1e9 () in
  (* 64 CNPs within one guard window: only the first cuts. *)
  for i = 0 to 63 do
    Dcqcn.on_cnp d ~now:(float_of_int i *. 1e-7)
  done;
  Alcotest.(check int) "one cut under guard" 1 (Dcqcn.cuts d)

let test_dcqcn_no_guard_collapses () =
  let d = Dcqcn.create ~guard:None ~line_rate:1e9 () in
  for i = 0 to 63 do
    Dcqcn.on_cnp d ~now:(float_of_int i *. 1e-7)
  done;
  Alcotest.(check int) "64 cuts without guard" 64 (Dcqcn.cuts d);
  (* Floor is 1e-3 of line rate; allow the sliver of linear recovery
     accrued since the last cut. *)
  Alcotest.(check bool) "rate floored" true (Dcqcn.rate d ~now:6.4e-6 <= 1e9 *. 1e-3 *. 1.1)

let test_dcqcn_guard_allows_spaced_cuts () =
  let d = Dcqcn.create ~line_rate:1e9 () in
  Dcqcn.on_cnp d ~now:0.0;
  Dcqcn.on_cnp d ~now:100e-6;
  Alcotest.(check int) "two spaced cuts" 2 (Dcqcn.cuts d)

let test_dcqcn_release_duration () =
  let d = Dcqcn.create ~line_rate:1e9 () in
  check_float "at line rate" 1e-3 (Dcqcn.release_duration d ~now:0.0 ~bytes:1e6)

let test_dcqcn_nan_rejected () =
  check_invalid "nan line rate" (fun () -> Dcqcn.create ~line_rate:nan ());
  check_invalid "nan guard" (fun () ->
      Dcqcn.create ~guard:(Some nan) ~line_rate:1e9 ());
  let d = Dcqcn.create ~line_rate:1e9 () in
  check_invalid "nan chunk bytes" (fun () ->
      Dcqcn.release_duration d ~now:0.0 ~bytes:nan)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "peel_sim"
    [
      ( "engine",
        [
          Alcotest.test_case "time order" `Quick test_engine_order;
          Alcotest.test_case "fifo ties" `Quick test_engine_fifo_ties;
          Alcotest.test_case "cascading" `Quick test_engine_cascading;
          Alcotest.test_case "past rejected" `Quick test_engine_past_rejected;
          Alcotest.test_case "until" `Quick test_engine_until;
          Alcotest.test_case "until holds an event at now" `Quick
            test_engine_until_holds_event_at_now;
          Alcotest.test_case "nan rejected" `Quick test_engine_nan_rejected;
        ] );
      ( "link_state",
        [
          Alcotest.test_case "reserve basic" `Quick test_link_reserve_basic;
          Alcotest.test_case "fifo queueing" `Quick test_link_fifo_queueing;
          Alcotest.test_case "directions independent" `Quick test_link_independent_directions;
          Alcotest.test_case "idle gap" `Quick test_link_idle_gap;
          Alcotest.test_case "down rejected" `Quick test_link_down_rejected;
          Alcotest.test_case "nan rejected" `Quick test_link_nan_rejected;
          Alcotest.test_case "reset" `Quick test_link_reset;
        ] );
      ( "transfer",
        [
          Alcotest.test_case "store and forward" `Quick test_unicast_store_and_forward;
          Alcotest.test_case "chunk pipelining" `Quick test_unicast_pipeline_two_chunks;
          Alcotest.test_case "empty path" `Quick test_unicast_empty_path;
          Alcotest.test_case "on_reserve hook" `Quick test_dag_on_reserve_hook;
          Alcotest.test_case "path_links" `Quick test_path_links;
          Alcotest.test_case "multicast timing" `Quick test_multicast_tree_timing;
          qt prop_unicast_idle_path_closed_form;
        ] );
      ( "loss",
        [
          Alcotest.test_case "model validation" `Quick test_loss_model_validation;
          Alcotest.test_case "nan rejected" `Quick test_loss_model_nan_rejected;
          Alcotest.test_case "prob zero is lossless" `Quick test_unicast_lossless_prob_zero;
          Alcotest.test_case "unicast recovers" `Quick test_unicast_recovers_from_loss;
          Alcotest.test_case "down link orphans subtree" `Quick
            test_multicast_down_link_orphans_subtree;
          Alcotest.test_case "multicast loss repaired hop-locally" `Quick
            test_multicast_loss_repaired_hop_locally;
          Alcotest.test_case "mid-flight failure drops chunk" `Quick
            test_midflight_failure_drops_chunk;
          Alcotest.test_case "on_lost reports in DAG order" `Quick test_on_lost_dag_order;
        ] );
      ( "dcqcn",
        [
          Alcotest.test_case "initial rate" `Quick test_dcqcn_initial_rate;
          Alcotest.test_case "cut and recover" `Quick test_dcqcn_cut_and_recover;
          Alcotest.test_case "guard suppresses burst" `Quick test_dcqcn_guard_suppresses_burst;
          Alcotest.test_case "no guard collapses" `Quick test_dcqcn_no_guard_collapses;
          Alcotest.test_case "guard allows spaced cuts" `Quick test_dcqcn_guard_allows_spaced_cuts;
          Alcotest.test_case "release duration" `Quick test_dcqcn_release_duration;
          Alcotest.test_case "nan rejected" `Quick test_dcqcn_nan_rejected;
        ] );
    ]
