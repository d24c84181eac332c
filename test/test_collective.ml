(* Tests for peel_collective: end-to-end broadcast execution for all six
   schemes, relative performance invariants the paper predicts, and the
   DCQCN guard-timer effect. *)

open Peel_topology
open Peel_workload
open Peel_collective
module Rng = Peel_util.Rng

let fat4 () = Fabric.fat_tree ~k:4 ~hosts_per_tor:2 ~gpus_per_host:4 ()

let one_broadcast fabric ~scale ~bytes ~seed = Spec.single fabric (Rng.create seed) ~scale ~bytes

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
(* Pinned broadcast corpus                                             *)
(* ------------------------------------------------------------------ *)

(* Every scheme under every congestion-control and loss setting on two
   fabrics, eight 16-GPU 64 MB broadcasts at load 0.7 per run.  Each
   run is reduced to one digest over its event count, makespan, every
   CCT bit for bit, the loss repairs and every trace counter, so any
   drift in event order, float arithmetic or RNG use fails with the
   combination's name.  The digests were recorded before the schemes
   moved onto Par's forwarding DAGs. *)
let pin_fabrics =
  [
    ("ft-k4", Fabric.fat_tree ~k:4 ~hosts_per_tor:2 ~gpus_per_host:2 ());
    ("ls-4x8", Fabric.leaf_spine ~gpus_per_host:2 ~spines:4 ~leaves:8 ~hosts_per_leaf:2 ());
  ]

let pin_schemes =
  Scheme.
    [ Ring; Btree; Dbtree; Optimal; Orca; Peel; Peel_prog_cores; Peel_multitree 3 ]

let pin_ccs =
  [
    ("nocc", Broadcast.No_cc);
    ("dcqcn", Broadcast.Dcqcn { guard = Some Peel_sim.Dcqcn.default_guard; ecn_delay = 10e-6 });
    ("dcqcn-noguard", Broadcast.Dcqcn { guard = None; ecn_delay = 10e-6 });
  ]

(* [extra] is appended to what is digested: Refine's fingerprint. *)
let pin_digest ?(extra = "") (o : Runner.outcome) ~retransmissions =
  let b = Buffer.create 512 in
  let c = Peel_sim.Trace.counters o.Runner.trace in
  Printf.bprintf b "%d %h" o.Runner.events o.Runner.makespan;
  List.iter (Printf.bprintf b " %h") o.Runner.ccts;
  Printf.bprintf b " r%d | %d %h %d %d %d %d %d %d %d %d %d %d %d %d %d %d %d %d %d %d"
    retransmissions c.reservations c.bytes_reserved c.ecn_marks c.deliveries c.releases
    c.cnps c.rate_cuts c.guard_holds c.drops c.retransmits c.link_fails c.link_recovers
    c.replans c.rule_installs c.refines c.evictions c.plan_cache_hits c.plan_cache_misses
    c.engine_events c.engine_max_pending;
  Buffer.add_string b extra;
  String.sub (Digest.to_hex (Digest.string (Buffer.contents b))) 0 16

(* (name, digest) for the whole corpus, in a fixed order. *)
let pin_corpus () =
  List.concat_map
    (fun (fname, fabric) ->
      let specs =
        Spec.poisson_broadcasts fabric (Rng.create 18) ~n:8 ~scale:16 ~bytes:64e6 ~load:0.7 ()
      in
      List.concat_map
        (fun scheme ->
          let controllers =
            match scheme with
            | Scheme.Orca | Scheme.Peel_prog_cores -> [ true; false ]
            | _ -> [ true ]
          in
          List.concat_map
            (fun controller ->
              List.concat_map
                (fun (ccname, cc) ->
                  List.map
                    (fun lossy ->
                      let loss =
                        if lossy then Some (Peel_sim.Transfer.loss_model ~seed:5 ~prob:0.02 ())
                        else None
                      in
                      let trace = Peel_sim.Trace.create ~level:Peel_sim.Trace.Counters () in
                      let o = Runner.run ~cc ~controller ?loss ~trace fabric scheme specs in
                      let retransmissions =
                        match loss with
                        | Some l -> l.Peel_sim.Transfer.retransmissions
                        | None -> 0
                      in
                      ( String.concat "/"
                          [
                            fname; Scheme.to_string scheme; ccname;
                            (if lossy then "loss" else "clean");
                            (if controller then "ctl" else "noctl");
                          ],
                        pin_digest o ~retransmissions ))
                    [ false; true ])
                pin_ccs)
            controllers)
        pin_schemes)
    pin_fabrics

let pinned_digests =
  [
    ("ft-k4/ring/nocc/clean/ctl", "da8c7fedd7e1bc99");
    ("ft-k4/ring/nocc/loss/ctl", "504e8e0b8526eb1b");
    ("ft-k4/ring/dcqcn/clean/ctl", "2dd3855baae61b91");
    ("ft-k4/ring/dcqcn/loss/ctl", "a0d1a2a320c8242b");
    ("ft-k4/ring/dcqcn-noguard/clean/ctl", "37510e610c0c088e");
    ("ft-k4/ring/dcqcn-noguard/loss/ctl", "e593fc1e11de5fba");
    ("ft-k4/tree/nocc/clean/ctl", "331cee2f9aabd517");
    ("ft-k4/tree/nocc/loss/ctl", "4f077e3172bdcc10");
    ("ft-k4/tree/dcqcn/clean/ctl", "b42fd39a02848ee4");
    ("ft-k4/tree/dcqcn/loss/ctl", "e9cfdd1eb6c47d9f");
    ("ft-k4/tree/dcqcn-noguard/clean/ctl", "9e506750e4cce297");
    ("ft-k4/tree/dcqcn-noguard/loss/ctl", "ee097ccb8ed4abde");
    ("ft-k4/dbtree/nocc/clean/ctl", "88210b0f3c3d8b26");
    ("ft-k4/dbtree/nocc/loss/ctl", "6c39fab0cc5b5cd3");
    ("ft-k4/dbtree/dcqcn/clean/ctl", "e4f52ac8b49edac7");
    ("ft-k4/dbtree/dcqcn/loss/ctl", "792a18df3c32fbce");
    ("ft-k4/dbtree/dcqcn-noguard/clean/ctl", "63bcf2e91b223508");
    ("ft-k4/dbtree/dcqcn-noguard/loss/ctl", "08fc787002ae24f7");
    ("ft-k4/optimal/nocc/clean/ctl", "91adcb8d2de8c1dd");
    ("ft-k4/optimal/nocc/loss/ctl", "c2023d0b156f05ef");
    ("ft-k4/optimal/dcqcn/clean/ctl", "a9c307bfdc66bda1");
    ("ft-k4/optimal/dcqcn/loss/ctl", "0d7d24e1a0bf9e39");
    ("ft-k4/optimal/dcqcn-noguard/clean/ctl", "b85a8dcc63643ac9");
    ("ft-k4/optimal/dcqcn-noguard/loss/ctl", "22b8533888fa4953");
    ("ft-k4/orca/nocc/clean/ctl", "a3d523efaec60892");
    ("ft-k4/orca/nocc/loss/ctl", "35f4cfcd3db3fae0");
    ("ft-k4/orca/dcqcn/clean/ctl", "4fb194c68e9e844e");
    ("ft-k4/orca/dcqcn/loss/ctl", "f9c35375ac3ee040");
    ("ft-k4/orca/dcqcn-noguard/clean/ctl", "3108a94327b7739c");
    ("ft-k4/orca/dcqcn-noguard/loss/ctl", "10fc37f47cd3fd17");
    ("ft-k4/orca/nocc/clean/noctl", "03bb52e1031b0859");
    ("ft-k4/orca/nocc/loss/noctl", "09ca67ec7804e312");
    ("ft-k4/orca/dcqcn/clean/noctl", "73f6b77e5c766cef");
    ("ft-k4/orca/dcqcn/loss/noctl", "29bce8b5789841fa");
    ("ft-k4/orca/dcqcn-noguard/clean/noctl", "c61ff70e913348c9");
    ("ft-k4/orca/dcqcn-noguard/loss/noctl", "a8c72bd1c55681ba");
    ("ft-k4/peel/nocc/clean/ctl", "922936338e6bcecb");
    ("ft-k4/peel/nocc/loss/ctl", "78ec2cf40a6c009f");
    ("ft-k4/peel/dcqcn/clean/ctl", "67b4dd32034da4f3");
    ("ft-k4/peel/dcqcn/loss/ctl", "5ff8a6e91b836f7e");
    ("ft-k4/peel/dcqcn-noguard/clean/ctl", "df03b4614c923222");
    ("ft-k4/peel/dcqcn-noguard/loss/ctl", "85c0d5e11d68ed3e");
    ("ft-k4/peel+cores/nocc/clean/ctl", "d4c76dda0fd22a0f");
    ("ft-k4/peel+cores/nocc/loss/ctl", "8d52ea1a47cab56e");
    ("ft-k4/peel+cores/dcqcn/clean/ctl", "4ad500269d1d972e");
    ("ft-k4/peel+cores/dcqcn/loss/ctl", "967cf3ed1aa27a5b");
    ("ft-k4/peel+cores/dcqcn-noguard/clean/ctl", "7f38d0cb3f76f7a0");
    ("ft-k4/peel+cores/dcqcn-noguard/loss/ctl", "4061ea573d12d78b");
    ("ft-k4/peel+cores/nocc/clean/noctl", "d4c76dda0fd22a0f");
    ("ft-k4/peel+cores/nocc/loss/noctl", "8d52ea1a47cab56e");
    ("ft-k4/peel+cores/dcqcn/clean/noctl", "4ad500269d1d972e");
    ("ft-k4/peel+cores/dcqcn/loss/noctl", "967cf3ed1aa27a5b");
    ("ft-k4/peel+cores/dcqcn-noguard/clean/noctl", "7f38d0cb3f76f7a0");
    ("ft-k4/peel+cores/dcqcn-noguard/loss/noctl", "4061ea573d12d78b");
    ("ft-k4/peel-mt3/nocc/clean/ctl", "b7537547807180f8");
    ("ft-k4/peel-mt3/nocc/loss/ctl", "d3d62c9044ea23ba");
    ("ft-k4/peel-mt3/dcqcn/clean/ctl", "b3b8f11edb5d14e4");
    ("ft-k4/peel-mt3/dcqcn/loss/ctl", "8f982126bc763a81");
    ("ft-k4/peel-mt3/dcqcn-noguard/clean/ctl", "223711501d066bc0");
    ("ft-k4/peel-mt3/dcqcn-noguard/loss/ctl", "87d8c8ec28bffbcd");
    ("ls-4x8/ring/nocc/clean/ctl", "78fbdbd131dcc564");
    ("ls-4x8/ring/nocc/loss/ctl", "6d03d76d2c3d719c");
    ("ls-4x8/ring/dcqcn/clean/ctl", "85e4adb28eb15906");
    ("ls-4x8/ring/dcqcn/loss/ctl", "f470fc4fda326d29");
    ("ls-4x8/ring/dcqcn-noguard/clean/ctl", "39e86259d504a0ef");
    ("ls-4x8/ring/dcqcn-noguard/loss/ctl", "bf86ee9288fc482f");
    ("ls-4x8/tree/nocc/clean/ctl", "64b7068260797fcb");
    ("ls-4x8/tree/nocc/loss/ctl", "c5ddb45524361848");
    ("ls-4x8/tree/dcqcn/clean/ctl", "1815cc3e50e928ac");
    ("ls-4x8/tree/dcqcn/loss/ctl", "2d5bccfe5a54e5ea");
    ("ls-4x8/tree/dcqcn-noguard/clean/ctl", "c20936c440c69183");
    ("ls-4x8/tree/dcqcn-noguard/loss/ctl", "503d320e567b7cac");
    ("ls-4x8/dbtree/nocc/clean/ctl", "067687e4b451d3ea");
    ("ls-4x8/dbtree/nocc/loss/ctl", "7dc87810e5b510c9");
    ("ls-4x8/dbtree/dcqcn/clean/ctl", "e1b4180ed12193f4");
    ("ls-4x8/dbtree/dcqcn/loss/ctl", "4897d2cbabc858a5");
    ("ls-4x8/dbtree/dcqcn-noguard/clean/ctl", "a8621172ac3ef551");
    ("ls-4x8/dbtree/dcqcn-noguard/loss/ctl", "20a75897d24e0cff");
    ("ls-4x8/optimal/nocc/clean/ctl", "7f62a67fc874b927");
    ("ls-4x8/optimal/nocc/loss/ctl", "4b81c0381246dbf5");
    ("ls-4x8/optimal/dcqcn/clean/ctl", "7cdd471c32a1a09d");
    ("ls-4x8/optimal/dcqcn/loss/ctl", "f41f34bdd1297012");
    ("ls-4x8/optimal/dcqcn-noguard/clean/ctl", "ddda358f166ceebc");
    ("ls-4x8/optimal/dcqcn-noguard/loss/ctl", "02b7b50ed47ab813");
    ("ls-4x8/orca/nocc/clean/ctl", "e3f471391a735b72");
    ("ls-4x8/orca/nocc/loss/ctl", "b5220cc89f140297");
    ("ls-4x8/orca/dcqcn/clean/ctl", "5ac2fd14aa55b512");
    ("ls-4x8/orca/dcqcn/loss/ctl", "34164867fcf0989c");
    ("ls-4x8/orca/dcqcn-noguard/clean/ctl", "1f266913e5d3d92d");
    ("ls-4x8/orca/dcqcn-noguard/loss/ctl", "8d4bb63ee7362e78");
    ("ls-4x8/orca/nocc/clean/noctl", "5a763cc2f332862e");
    ("ls-4x8/orca/nocc/loss/noctl", "267c311cef549e96");
    ("ls-4x8/orca/dcqcn/clean/noctl", "704eecf0c3c2af0d");
    ("ls-4x8/orca/dcqcn/loss/noctl", "6db356bc05da7159");
    ("ls-4x8/orca/dcqcn-noguard/clean/noctl", "3c52778fc4018140");
    ("ls-4x8/orca/dcqcn-noguard/loss/noctl", "b20cc41fe8a68401");
    ("ls-4x8/peel/nocc/clean/ctl", "17d2a8346650e72d");
    ("ls-4x8/peel/nocc/loss/ctl", "2e2482c6cd4315d1");
    ("ls-4x8/peel/dcqcn/clean/ctl", "5890d05fcdf45a8a");
    ("ls-4x8/peel/dcqcn/loss/ctl", "6a5551155d7599bf");
    ("ls-4x8/peel/dcqcn-noguard/clean/ctl", "927cf27460216567");
    ("ls-4x8/peel/dcqcn-noguard/loss/ctl", "568fb5e375b908b8");
    ("ls-4x8/peel+cores/nocc/clean/ctl", "fe6f3e958cbf199a");
    ("ls-4x8/peel+cores/nocc/loss/ctl", "4ff2c16562110b91");
    ("ls-4x8/peel+cores/dcqcn/clean/ctl", "0c2ee054db65a063");
    ("ls-4x8/peel+cores/dcqcn/loss/ctl", "7c8e2a7cde7eed5e");
    ("ls-4x8/peel+cores/dcqcn-noguard/clean/ctl", "eb595171bccc8d05");
    ("ls-4x8/peel+cores/dcqcn-noguard/loss/ctl", "8b1da189feaec22e");
    ("ls-4x8/peel+cores/nocc/clean/noctl", "fe6f3e958cbf199a");
    ("ls-4x8/peel+cores/nocc/loss/noctl", "4ff2c16562110b91");
    ("ls-4x8/peel+cores/dcqcn/clean/noctl", "0c2ee054db65a063");
    ("ls-4x8/peel+cores/dcqcn/loss/noctl", "7c8e2a7cde7eed5e");
    ("ls-4x8/peel+cores/dcqcn-noguard/clean/noctl", "eb595171bccc8d05");
    ("ls-4x8/peel+cores/dcqcn-noguard/loss/noctl", "8b1da189feaec22e");
    ("ls-4x8/peel-mt3/nocc/clean/ctl", "1c50dfdbf705f6b3");
    ("ls-4x8/peel-mt3/nocc/loss/ctl", "80464986228f28b8");
    ("ls-4x8/peel-mt3/dcqcn/clean/ctl", "4ff722fd2eef7ae9");
    ("ls-4x8/peel-mt3/dcqcn/loss/ctl", "4e096c1b890596fd");
    ("ls-4x8/peel-mt3/dcqcn-noguard/clean/ctl", "80f551ec7333df4b");
    ("ls-4x8/peel-mt3/dcqcn-noguard/loss/ctl", "ce7476ce4f2207ff");
  ]

let test_broadcast_pinned () =
  let got = pin_corpus () in
  let drifted =
    List.filter_map
      (fun (name, d) ->
        match List.assoc_opt name pinned_digests with
        | Some want when want = d -> None
        | Some want -> Some (Printf.sprintf "%s: %s, pinned %s" name d want)
        | None -> Some (name ^ ": not pinned"))
      got
  in
  if drifted <> [] then Alcotest.failf "drifted runs:\n%s" (String.concat "\n" drifted);
  Alcotest.(check int) "corpus size" (List.length pinned_digests) (List.length got)

(* ------------------------------------------------------------------ *)
(* Pinned launcher corpus                                              *)
(* ------------------------------------------------------------------ *)

(* The launchers beside Broadcast, on the broadcast corpus's fabrics
   with three seeds each: allgather, reduce and allreduce under both
   algorithms; Refine.run under every scheme at a tight and a loose
   TCAM capacity, with its fingerprint in the digest; and Failover.run
   under every scheme through a permanent cut, a cut that recovers and
   a cut with 2 % random loss.  Each cell is one {!pin_digest}.  The
   digests were recorded while these launchers still walked chunks over
   link lists and trees, before they moved onto Par's routes. *)
let launcher_fabrics =
  [
    ("ft-k4", fun () -> Fabric.fat_tree ~k:4 ~hosts_per_tor:2 ~gpus_per_host:2 ());
    ( "ls-4x8",
      fun () -> Fabric.leaf_spine ~gpus_per_host:2 ~spines:4 ~leaves:8 ~hosts_per_leaf:2 () );
  ]

let launcher_seeds = [ 1; 2; 3 ]

let collective_cells =
  [
    ("allgather/ring", fun f cs -> Allgather.run f Allgather.Ring_exchange cs);
    ("allgather/peel", fun f cs -> Allgather.run f Allgather.Peel_multicast cs);
    ("reduce/ring", fun f cs -> Reduce.run f Reduce.Ring_pass cs);
    ("reduce/tree", fun f cs -> Reduce.run f Reduce.Btree_reduce cs);
    ("allreduce/ring", fun f cs -> Allreduce.run f Allreduce.Ring_rs_ag cs);
    ("allreduce/reduce+peel", fun f cs -> Allreduce.run f Allreduce.Reduce_then_peel cs);
  ]

let counters_trace () = Peel_sim.Trace.create ~level:Peel_sim.Trace.Counters ()

(* (name, digest) per cell, and (failover scheme, cut, counters) per
   failover cell. *)
let launcher_corpus () =
  let failovers = ref [] in
  let cells =
    List.concat_map
      (fun (fname, make) ->
        List.concat_map
          (fun seed ->
            let cell name d = (Printf.sprintf "%s/s%d/%s" fname seed name, d) in
            let f = make () in
            let specs =
              Spec.poisson_broadcasts f (Rng.create seed) ~n:3 ~scale:8 ~bytes:4e6 ~load:0.5 ()
            in
            let collectives =
              List.map
                (fun (name, go) -> cell name (pin_digest (go f specs) ~retransmissions:0))
                collective_cells
            in
            let groups =
              Spec.poisson_groups f (Rng.create seed) ~n:4 ~scale:8 ~bytes:8e6 ~load:0.5
                ~hold:0.05 ~fragmentation:0.6 ()
            in
            let refines =
              List.concat_map
                (fun scheme ->
                  List.map
                    (fun capacity ->
                      let cfg = { Peel_ctrl.Controller.default_config with capacity } in
                      let o =
                        Peel_ctrl.Refine.run ~cfg ~trace:(counters_trace ()) f scheme groups
                      in
                      cell
                        (Printf.sprintf "refine/%s/cap%d"
                           (Peel_ctrl.Refine.scheme_to_string scheme)
                           capacity)
                        (pin_digest ~extra:o.Peel_ctrl.Refine.fingerprint o.Peel_ctrl.Refine.run
                           ~retransmissions:0))
                    [ 2; 1024 ])
                Peel_ctrl.Refine.all_schemes
            in
            (* As [peel_cli failover]: one group, links drawn with
               connectivity kept and put back up, failing at 40 % of
               the scheme's clean CCT. *)
            let rng = Rng.create seed in
            let spec = Spec.single f rng ~scale:8 ~bytes:4e6 in
            let ids = Fabric.fail_random f ~rng ~tier:`All ~fraction:0.2 () in
            List.iter (Fabric.recover_link f) ids;
            let failover_cells =
              List.concat_map
                (fun scheme ->
                  let clean = List.hd (Failover.run f scheme [ spec ]).Runner.ccts in
                  let at = 0.4 *. clean in
                  List.map
                    (fun (cut, recover_at, lossy) ->
                      let faults = Peel_sim.Fault.schedule_of_failures ~at ?recover_at ids in
                      let loss =
                        if lossy then Some (Peel_sim.Transfer.loss_model ~seed ~prob:0.02 ())
                        else None
                      in
                      let trace = counters_trace () in
                      let o = Failover.run ?loss ~trace ~faults f scheme [ spec ] in
                      List.iter (Fabric.recover_link f) ids;
                      failovers := (scheme, cut, Peel_sim.Trace.counters trace) :: !failovers;
                      let retransmissions =
                        match loss with
                        | Some l -> l.Peel_sim.Transfer.retransmissions
                        | None -> 0
                      in
                      cell
                        (Printf.sprintf "failover/%s/%s" (Failover.scheme_to_string scheme) cut)
                        (pin_digest o ~retransmissions))
                    [ ("cut", None, false); ("recover", Some (at +. 2e-3), false); ("loss", None, true) ])
                Failover.all_schemes
            in
            collectives @ refines @ failover_cells)
          launcher_seeds)
      launcher_fabrics
  in
  (cells, List.rev !failovers)

let pinned_launchers =
  [
    ("ft-k4/s1/allgather/ring", "befab674b25177e9");
    ("ft-k4/s1/allgather/peel", "7708ebb43c801c30");
    ("ft-k4/s1/reduce/ring", "03e36f001267f44c");
    ("ft-k4/s1/reduce/tree", "fbc37cd46fa69ff4");
    ("ft-k4/s1/allreduce/ring", "547d1d1eab16d38e");
    ("ft-k4/s1/allreduce/reduce+peel", "f0ac963558bbb9da");
    ("ft-k4/s1/refine/peel-static/cap2", "b7536579585d2cbc");
    ("ft-k4/s1/refine/peel-static/cap1024", "b7536579585d2cbc");
    ("ft-k4/s1/refine/peel-refined/cap2", "7022c0ff57f94993");
    ("ft-k4/s1/refine/peel-refined/cap1024", "7fba7a032ac359e5");
    ("ft-k4/s1/refine/ipmc/cap2", "79031079cc8d1aaf");
    ("ft-k4/s1/refine/ipmc/cap1024", "79031079cc8d1aaf");
    ("ft-k4/s1/failover/peel/cut", "8ce5448d8105d5c7");
    ("ft-k4/s1/failover/peel/recover", "497b473829c81b0e");
    ("ft-k4/s1/failover/peel/loss", "8ce5448d8105d5c7");
    ("ft-k4/s1/failover/ring/cut", "56bd9e2e214ed395");
    ("ft-k4/s1/failover/ring/recover", "f91372652b74400f");
    ("ft-k4/s1/failover/ring/loss", "a1dbdbcef99c3267");
    ("ft-k4/s1/failover/tree/cut", "a8051413a9a48b7a");
    ("ft-k4/s1/failover/tree/recover", "8c750522a77675d3");
    ("ft-k4/s1/failover/tree/loss", "cab496420a67c351");
    ("ft-k4/s2/allgather/ring", "5ef097716c5b2df3");
    ("ft-k4/s2/allgather/peel", "955cdd8f83f4d8e0");
    ("ft-k4/s2/reduce/ring", "c800b5e6dd14b979");
    ("ft-k4/s2/reduce/tree", "ec8b0e40f30204ff");
    ("ft-k4/s2/allreduce/ring", "003b8790e7bcaff8");
    ("ft-k4/s2/allreduce/reduce+peel", "f0ee3ebbfef258cb");
    ("ft-k4/s2/refine/peel-static/cap2", "9a135fd381bc3b19");
    ("ft-k4/s2/refine/peel-static/cap1024", "9a135fd381bc3b19");
    ("ft-k4/s2/refine/peel-refined/cap2", "f31929dae7c931cb");
    ("ft-k4/s2/refine/peel-refined/cap1024", "7879c67d5d8c19ca");
    ("ft-k4/s2/refine/ipmc/cap2", "a8d3af3e51b44b14");
    ("ft-k4/s2/refine/ipmc/cap1024", "a8d3af3e51b44b14");
    ("ft-k4/s2/failover/peel/cut", "f786f93aea2e81e8");
    ("ft-k4/s2/failover/peel/recover", "af01f855bf70048a");
    ("ft-k4/s2/failover/peel/loss", "4aa4f97a59a4f654");
    ("ft-k4/s2/failover/ring/cut", "16aa8b3e1c57f7da");
    ("ft-k4/s2/failover/ring/recover", "474295898408c120");
    ("ft-k4/s2/failover/ring/loss", "9f7c8cd7641e7eca");
    ("ft-k4/s2/failover/tree/cut", "693d31de282bf60e");
    ("ft-k4/s2/failover/tree/recover", "78cfb17d2f3320f7");
    ("ft-k4/s2/failover/tree/loss", "1c59eaa842534f0f");
    ("ft-k4/s3/allgather/ring", "4bb8909aaef238f4");
    ("ft-k4/s3/allgather/peel", "ccd4fe6ee0cc4aec");
    ("ft-k4/s3/reduce/ring", "bcf5053c294b7730");
    ("ft-k4/s3/reduce/tree", "a846f9d0398f75ff");
    ("ft-k4/s3/allreduce/ring", "c1150a1556cfdb14");
    ("ft-k4/s3/allreduce/reduce+peel", "dd86b3cbc72f5f37");
    ("ft-k4/s3/refine/peel-static/cap2", "dcedb1cd320c570a");
    ("ft-k4/s3/refine/peel-static/cap1024", "dcedb1cd320c570a");
    ("ft-k4/s3/refine/peel-refined/cap2", "a8a4387ca7fa0396");
    ("ft-k4/s3/refine/peel-refined/cap1024", "ae4e6df4082487ed");
    ("ft-k4/s3/refine/ipmc/cap2", "e756b21e676fa70b");
    ("ft-k4/s3/refine/ipmc/cap1024", "e756b21e676fa70b");
    ("ft-k4/s3/failover/peel/cut", "8ce5448d8105d5c7");
    ("ft-k4/s3/failover/peel/recover", "497b473829c81b0e");
    ("ft-k4/s3/failover/peel/loss", "2228beac411324e8");
    ("ft-k4/s3/failover/ring/cut", "56bd9e2e214ed395");
    ("ft-k4/s3/failover/ring/recover", "f91372652b74400f");
    ("ft-k4/s3/failover/ring/loss", "24e73301858a2c54");
    ("ft-k4/s3/failover/tree/cut", "0f1edaef44d459d3");
    ("ft-k4/s3/failover/tree/recover", "dab29b6b060a26e9");
    ("ft-k4/s3/failover/tree/loss", "09bd37c668bc4f2c");
    ("ls-4x8/s1/allgather/ring", "03f37ea3ed0fe973");
    ("ls-4x8/s1/allgather/peel", "d3d0dd9a068d36cd");
    ("ls-4x8/s1/reduce/ring", "2c1b9e578c92c8cc");
    ("ls-4x8/s1/reduce/tree", "dcab347de77a489a");
    ("ls-4x8/s1/allreduce/ring", "547d1d1eab16d38e");
    ("ls-4x8/s1/allreduce/reduce+peel", "1bc457a9341208bd");
    ("ls-4x8/s1/refine/peel-static/cap2", "97b8ad634851ac4d");
    ("ls-4x8/s1/refine/peel-static/cap1024", "97b8ad634851ac4d");
    ("ls-4x8/s1/refine/peel-refined/cap2", "7582d441b9da2496");
    ("ls-4x8/s1/refine/peel-refined/cap1024", "39018d88865b817d");
    ("ls-4x8/s1/refine/ipmc/cap2", "28994fe8a938c1be");
    ("ls-4x8/s1/refine/ipmc/cap1024", "28994fe8a938c1be");
    ("ls-4x8/s1/failover/peel/cut", "8ce5448d8105d5c7");
    ("ls-4x8/s1/failover/peel/recover", "497b473829c81b0e");
    ("ls-4x8/s1/failover/peel/loss", "8ce5448d8105d5c7");
    ("ls-4x8/s1/failover/ring/cut", "56bd9e2e214ed395");
    ("ls-4x8/s1/failover/ring/recover", "f91372652b74400f");
    ("ls-4x8/s1/failover/ring/loss", "a1dbdbcef99c3267");
    ("ls-4x8/s1/failover/tree/cut", "db9b678ed1d5e833");
    ("ls-4x8/s1/failover/tree/recover", "c991cd771268554c");
    ("ls-4x8/s1/failover/tree/loss", "1a9a731c78231ee9");
    ("ls-4x8/s2/allgather/ring", "7d164bdc952b58f8");
    ("ls-4x8/s2/allgather/peel", "1c2970abe329017c");
    ("ls-4x8/s2/reduce/ring", "20c510c0a9adc578");
    ("ls-4x8/s2/reduce/tree", "fa48a7bebb421f50");
    ("ls-4x8/s2/allreduce/ring", "93602c145785b3eb");
    ("ls-4x8/s2/allreduce/reduce+peel", "4d63c594c13139bc");
    ("ls-4x8/s2/refine/peel-static/cap2", "36b6add5dc1b46ce");
    ("ls-4x8/s2/refine/peel-static/cap1024", "36b6add5dc1b46ce");
    ("ls-4x8/s2/refine/peel-refined/cap2", "0ad9434d3853226a");
    ("ls-4x8/s2/refine/peel-refined/cap1024", "c04c94e305b3fbec");
    ("ls-4x8/s2/refine/ipmc/cap2", "7c1389b05ddb25b8");
    ("ls-4x8/s2/refine/ipmc/cap1024", "7c1389b05ddb25b8");
    ("ls-4x8/s2/failover/peel/cut", "1abf7abfa8fbf6d5");
    ("ls-4x8/s2/failover/peel/recover", "dde1ef0768a436b3");
    ("ls-4x8/s2/failover/peel/loss", "36b2ac6646b230f1");
    ("ls-4x8/s2/failover/ring/cut", "56bd9e2e214ed395");
    ("ls-4x8/s2/failover/ring/recover", "f91372652b74400f");
    ("ls-4x8/s2/failover/ring/loss", "2323cad6460e5e4f");
    ("ls-4x8/s2/failover/tree/cut", "f179bd4d74494a39");
    ("ls-4x8/s2/failover/tree/recover", "da5abb4bc8d03418");
    ("ls-4x8/s2/failover/tree/loss", "af0a8fe671dd6e5c");
    ("ls-4x8/s3/allgather/ring", "b6602a1cda5ed433");
    ("ls-4x8/s3/allgather/peel", "8826c94f8ce4372b");
    ("ls-4x8/s3/reduce/ring", "b95a3a3fa262d9c5");
    ("ls-4x8/s3/reduce/tree", "b5582cfb76ba95a5");
    ("ls-4x8/s3/allreduce/ring", "a5a6438e3e440a31");
    ("ls-4x8/s3/allreduce/reduce+peel", "717253b617fa9a55");
    ("ls-4x8/s3/refine/peel-static/cap2", "491bb8fdceddea77");
    ("ls-4x8/s3/refine/peel-static/cap1024", "491bb8fdceddea77");
    ("ls-4x8/s3/refine/peel-refined/cap2", "e72bbed414f5d8ab");
    ("ls-4x8/s3/refine/peel-refined/cap1024", "033dcb8f4b67217a");
    ("ls-4x8/s3/refine/ipmc/cap2", "afd22beff7089e04");
    ("ls-4x8/s3/refine/ipmc/cap1024", "afd22beff7089e04");
    ("ls-4x8/s3/failover/peel/cut", "8ce5448d8105d5c7");
    ("ls-4x8/s3/failover/peel/recover", "497b473829c81b0e");
    ("ls-4x8/s3/failover/peel/loss", "2228beac411324e8");
    ("ls-4x8/s3/failover/ring/cut", "56bd9e2e214ed395");
    ("ls-4x8/s3/failover/ring/recover", "f91372652b74400f");
    ("ls-4x8/s3/failover/ring/loss", "24e73301858a2c54");
    ("ls-4x8/s3/failover/tree/cut", "22ff51299454389b");
    ("ls-4x8/s3/failover/tree/recover", "e03a54a3c38b2852");
    ("ls-4x8/s3/failover/tree/loss", "a87c1d9f4077bbfe");
  ]

let test_launchers_pinned () =
  let got, failovers = launcher_corpus () in
  let drifted =
    List.filter_map
      (fun (name, d) ->
        match List.assoc_opt name pinned_launchers with
        | Some want when want = d -> None
        | Some want -> Some (Printf.sprintf "%s: %s, pinned %s" name d want)
        | None -> Some (name ^ ": not pinned"))
      got
  in
  if drifted <> [] then Alcotest.failf "drifted runs:\n%s" (String.concat "\n" drifted);
  Alcotest.(check int) "corpus size" (List.length pinned_launchers) (List.length got);
  (* The corpus must keep exercising end-to-end repair: drops under
     every scheme, NACK repairs (retransmits without random loss) for
     the ring and the tree, and a replan for peel. *)
  let total scheme ~cuts field =
    List.fold_left
      (fun acc (s, cut, c) -> if s = scheme && List.mem cut cuts then acc + field c else acc)
      0 failovers
  in
  let all = [ "cut"; "recover"; "loss" ] and clean = [ "cut"; "recover" ] in
  List.iter
    (fun scheme ->
      let name = Failover.scheme_to_string scheme in
      Alcotest.(check bool) (name ^ " drops") true
        (total scheme ~cuts:all (fun c -> c.Peel_sim.Trace.drops) > 0))
    Failover.all_schemes;
  List.iter
    (fun scheme ->
      Alcotest.(check bool) (Failover.scheme_to_string scheme ^ " NACK repairs") true
        (total scheme ~cuts:clean (fun c -> c.Peel_sim.Trace.retransmits) > 0))
    [ Failover.Ring; Failover.Btree ];
  Alcotest.(check bool) "peel replans" true
    (total Failover.Peel ~cuts:all (fun c -> c.Peel_sim.Trace.replans) > 0)

(* ------------------------------------------------------------------ *)
(* Pinned forwarding DAGs                                              *)
(* ------------------------------------------------------------------ *)

(* Every route Par builds, reduced to one digest per (fabric, scheme)
   cell over each route's edge links, deliveries, CSR offsets,
   successors, roots and tree split, for six broadcasts on one shared
   path cache.  Any change to edge numbering, successor order or root
   order fails with the cell's name; so does a different path pick.
   Orca's cell runs each collective's plan drawn from a fixed seed.
   The digests were recorded before the builder moved from lists to
   arrays. *)
let dag_fabrics =
  [
    ("ft-k8", Fabric.fat_tree ~k:8 ~hosts_per_tor:4 ~gpus_per_host:2 (), 32);
    ("ls-4x8", Fabric.leaf_spine ~gpus_per_host:2 ~spines:4 ~leaves:8 ~hosts_per_leaf:2 (), 16);
  ]

let dag_schemes =
  Scheme.[ Ring; Btree; Dbtree; Optimal; Orca; Peel; Peel_prog_cores; Peel_multitree 3 ]

let route_digest_into b (r : Par.route) =
  let ints tag a =
    Buffer.add_string b tag;
    Array.iter (Printf.bprintf b " %d") a;
    Buffer.add_char b ';'
  in
  let d = r.Par.dag in
  ints "link" d.Peel_sim.Soa.d_link;
  ints "deliver" d.Peel_sim.Soa.d_deliver;
  ints "off" d.Peel_sim.Soa.d_succ_off;
  ints "succ" d.Peel_sim.Soa.d_succ;
  ints "roots" d.Peel_sim.Soa.d_roots;
  ints "trees" r.Par.trees

let dag_corpus () =
  List.concat_map
    (fun (fname, fabric, scale) ->
      let specs =
        Spec.poisson_broadcasts fabric (Rng.create 20) ~n:6 ~scale ~bytes:8e6 ~load:0.5 ~fragmentation:0.6 ()
      in
      List.map
        (fun scheme ->
          let paths = Paths.create fabric in
          let rng = Rng.create 3 in
          let b = Buffer.create 4096 in
          List.iter
            (fun (spec : Spec.collective) ->
              let routes =
                match scheme with
                | Scheme.Orca ->
                    [|
                      Par.orca paths spec
                        (Peel_baselines.Orca.plan fabric ~rng ~source:spec.source
                           ~dests:spec.dests);
                    |]
                | _ -> Par.routes fabric paths scheme spec
              in
              Printf.bprintf b "spec %d:" spec.id;
              Array.iter (route_digest_into b) routes)
            specs;
          ( fname ^ "/" ^ Scheme.to_string scheme,
            String.sub (Digest.to_hex (Digest.string (Buffer.contents b))) 0 16 ))
        dag_schemes)
    dag_fabrics

let pinned_dags =
  [
    ("ft-k8/ring", "b423d731df14c5e6");
    ("ft-k8/tree", "1b851e77e85bc4af");
    ("ft-k8/dbtree", "2a920d91628fdde7");
    ("ft-k8/optimal", "01f0cc1f992b6c1a");
    ("ft-k8/orca", "af1594cd64566ced");
    ("ft-k8/peel", "f702aa8006f4f40a");
    ("ft-k8/peel+cores", "4247c9a4d637e4ae");
    ("ft-k8/peel-mt3", "e5b56e0c5170d0e9");
    ("ls-4x8/ring", "013c5a090e96e5cf");
    ("ls-4x8/tree", "4bbb2038e4818315");
    ("ls-4x8/dbtree", "ce4371a78170507e");
    ("ls-4x8/optimal", "a853937f9a25eae3");
    ("ls-4x8/orca", "60afbd7fe7c4255c");
    ("ls-4x8/peel", "20fa915958931a82");
    ("ls-4x8/peel+cores", "09359e6e1cd77d1c");
    ("ls-4x8/peel-mt3", "56f55eff33b2d8da");
  ]

let test_dags_pinned () =
  let got = dag_corpus () in
  let drifted =
    List.filter_map
      (fun (name, d) ->
        match List.assoc_opt name pinned_dags with
        | Some want when want = d -> None
        | Some want -> Some (Printf.sprintf "%s: %s, pinned %s" name d want)
        | None -> Some (name ^ ": not pinned"))
      got
  in
  if drifted <> [] then Alcotest.failf "drifted DAGs:\n%s" (String.concat "\n" drifted);
  Alcotest.(check int) "corpus size" (List.length pinned_dags) (List.length got)

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
      ( "pinned",
        [
          Alcotest.test_case "broadcast corpus digests" `Quick test_broadcast_pinned;
          Alcotest.test_case "launcher corpus digests" `Quick test_launchers_pinned;
          Alcotest.test_case "par DAG digests" `Quick test_dags_pinned;
        ] );
      ( "paths",
        [
          QCheck_alcotest.to_alcotest prop_paths_match_full_bfs;
          Alcotest.test_case "disconnected pair raises" `Quick test_paths_disconnected;
        ] );
    ]
