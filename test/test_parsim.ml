(* Tests for the conservative parallel DES path: heap grow-boundary
   FIFO regressions, the sequential engine's order contract, the
   Par/Shard flattened engine against the sequential Runner, and
   jobs-1 vs jobs-n bit-identity. *)

open Peel_topology
open Peel_workload
module Rng = Peel_util.Rng
module Heap = Peel_util.Pairing_heap
module Scheme = Peel_collective.Scheme
module Runner = Peel_collective.Runner
module Par = Peel_collective.Par
module Shard = Peel_sim.Shard

let drain_heap h =
  let rec go acc =
    if Heap.is_empty h then List.rev acc
    else
      let p = Heap.min_prio h in
      go ((p, Heap.pop_min h) :: acc)
  in
  go []

(* ------------------------------------------------------------------ *)
(* Grow-path boundary: capacity doublings with equal priorities.       *)
(* The heap starts at capacity 16 and doubles; pushing equal-priority  *)
(* elements across 16/32/64… boundaries must preserve FIFO exactly.    *)
(* ------------------------------------------------------------------ *)

let test_heap_grow_boundary_fifo () =
  List.iter
    (fun n ->
      let h = Heap.create () in
      for i = 0 to n - 1 do Heap.push h 1.0 i done;
      let out = drain_heap h in
      let expected = List.init n (fun i -> (1.0, i)) in
      Alcotest.(check (list (pair (float 0.0) int)))
        (Printf.sprintf "heap FIFO across grow at %d" n)
        expected out)
    [ 15; 16; 17; 31; 32; 33; 63; 64; 65; 1024 ]

let test_heap_grow_boundary_mixed () =
  (* Exactly at the doubling boundary, interleave two priority classes
     and verify the merged order; a grow-path swap bug shows up as a
     FIFO inversion inside a class. *)
  List.iter
    (fun n ->
      let h = Heap.create () in
      for i = 0 to n - 1 do
        Heap.push h (if i land 1 = 0 then 2.0 else 1.0) i
      done;
      let cls p parity =
        List.init n (fun i -> i)
        |> List.filter (fun i -> i land 1 = parity)
        |> List.map (fun i -> (p, i))
      in
      Alcotest.(check (list (pair (float 0.0) int)))
        (Printf.sprintf "heap mixed classes at %d" n)
        (cls 1.0 1 @ cls 2.0 0) (drain_heap h))
    [ 16; 32; 64 ]

(* ------------------------------------------------------------------ *)
(* Engine order contract                                               *)
(* ------------------------------------------------------------------ *)

(* engine.mli's contract: events run in time order, and events at the
   same instant in scheduling order.  Every [schedule] call takes the
   next stamp, so the execution log must be sorted by (time, stamp),
   events scheduled from inside a callback included.  Times sit on a
   coarse grid and some callbacks schedule at [now], so ties are the
   common case. *)
let test_engine_time_then_stamp_order () =
  let module E = Peel_sim.Engine in
  let e = E.create () in
  let rng = Rng.create 7 in
  let stamps = ref 0 and log = ref [] in
  let schedule at f =
    let stamp = !stamps in
    incr stamps;
    E.schedule e at (fun () ->
        log := (E.now e, stamp) :: !log;
        f ())
  in
  for i = 0 to 499 do
    let at = float_of_int (Rng.int rng 40) *. 0.025 in
    schedule at (fun () ->
        if i land 3 = 0 then
          schedule (E.now e +. float_of_int (Rng.int rng 3) *. 0.025) ignore)
  done;
  E.run e;
  let got = List.rev !log in
  let ties =
    List.length got - List.length (List.sort_uniq compare (List.map fst got))
  in
  Alcotest.(check int) "every event ran" !stamps (List.length got);
  Alcotest.(check bool) "ties are common" true (ties > 100);
  Alcotest.(check (list (pair (float 0.0) int)))
    "sorted by (time, stamp)" (List.sort compare got) got

(* ------------------------------------------------------------------ *)
(* Sharded engine vs sequential Runner                                 *)
(* ------------------------------------------------------------------ *)

let par_schemes =
  [ Scheme.Ring; Scheme.Btree; Scheme.Dbtree; Scheme.Optimal; Scheme.Peel ]

let specs_for fabric ~seed ~n ~scale ~bytes =
  Spec.poisson_broadcasts fabric (Rng.create seed) ~n ~scale ~bytes ~load:0.3 ()

let check_ccts_equal what expected got =
  Alcotest.(check int) (what ^ ": count") (List.length expected) (List.length got);
  List.iteri
    (fun i (a, b) ->
      if not (Float.equal a b) then
        Alcotest.failf "%s: cct %d differs: %.17g vs %.17g" what i a b)
    (List.combine expected got)

(* Order-insensitive comparisons (per-link busy sums) tolerate
   summation-order ulps. *)
let near a b =
  Float.equal a b
  || Float.abs (a -. b) <= 1e-12 *. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b))

(* Every cell here is tie-free (no two distinct (flow, chunk)
   reservations collide at exactly equal float timestamps on a shared
   link), so legacy and sharded schedules coincide bit for bit.  The
   one known tie cell of this sweep — leaf-spine with Btree — is pinned
   separately in [test_cross_flow_tie_divergence]. *)
let test_par_matches_sequential () =
  let cells =
    [
      ("ft-k4", Fabric.fat_tree ~k:4 ~hosts_per_tor:2 ~gpus_per_host:2 (), par_schemes);
      ("ft-k8", Fabric.fat_tree ~k:8 ~hosts_per_tor:4 (), par_schemes);
      ( "ls",
        Fabric.leaf_spine ~spines:4 ~leaves:8 ~hosts_per_leaf:4 (),
        [ Scheme.Ring; Scheme.Dbtree; Scheme.Optimal; Scheme.Peel ] );
    ]
  in
  List.iter
    (fun (fname, fabric, schemes) ->
      List.iter
        (fun scheme ->
          let specs = specs_for fabric ~seed:42 ~n:4 ~scale:8 ~bytes:8e6 in
          let seq = Runner.run fabric scheme specs in
          let par = Par.run ~jobs:1 fabric scheme specs in
          let what = fname ^ "/" ^ Scheme.to_string scheme in
          check_ccts_equal what seq.Runner.ccts (Array.to_list par.Shard.r_ccts);
          if not (Float.equal seq.Runner.makespan par.Shard.r_makespan) then
            Alcotest.failf "%s: makespan %.17g vs %.17g" what seq.Runner.makespan
              par.Shard.r_makespan)
        schemes)
    cells

(* The leaf-spine/Btree cell of the sweep above hits a cross-flow tie:
   two reservations from different collectives land on a shared link at
   exactly equal float times.  The legacy closure engine serializes the
   tie by dynamic insertion order (a history-dependent property no
   static key can reproduce); the sharded engine serializes by its
   static (flow, chunk, edge) key.  Both are valid FIFO schedules, so
   individual CCTs may legitimately differ — here by one chunk
   transmission time.  What must still hold: the sharded engine agrees
   with itself for every jobs count, single flows (which cannot
   cross-flow-tie) match the legacy engine exactly, and order-
   insensitive aggregates — per-link busy time — agree across engines
   because the multiset of (link, bytes) transfers is identical. *)
let test_cross_flow_tie_divergence () =
  let fabric = Fabric.leaf_spine ~spines:4 ~leaves:8 ~hosts_per_leaf:4 () in
  let specs = specs_for fabric ~seed:42 ~n:4 ~scale:8 ~bytes:8e6 in
  let seq = Runner.run fabric Scheme.Btree specs in
  let r1 = Par.run ~jobs:1 fabric Scheme.Btree specs in
  let r4 = Par.run ~jobs:4 fabric Scheme.Btree specs in
  check_ccts_equal "tie: jobs1 == jobs4"
    (Array.to_list r1.Shard.r_ccts)
    (Array.to_list r4.Shard.r_ccts);
  Alcotest.(check bool) "tie: fingerprint" true
    (r1.Shard.r_fingerprint = r4.Shard.r_fingerprint);
  (* Per-link busy: utilization * horizon on the legacy side. *)
  let reports = Peel_sim.Telemetry.reports seq.Runner.telemetry in
  Array.iteri
    (fun lid (rep : Peel_sim.Telemetry.link_report) ->
      let legacy_busy = rep.Peel_sim.Telemetry.utilization *. seq.Runner.makespan in
      if not (near legacy_busy r1.Shard.r_busy.(lid)) then
        Alcotest.failf "tie: link %d busy %.17g vs %.17g" lid legacy_busy
          r1.Shard.r_busy.(lid))
    reports;
  (* Single flows cannot cross-flow-tie: each must match legacy exactly. *)
  List.iter
    (fun (spec : Spec.collective) ->
      let one = [ spec ] in
      let s = Runner.run fabric Scheme.Btree one in
      let p = Par.run ~jobs:1 fabric Scheme.Btree one in
      check_ccts_equal
        (Printf.sprintf "tie: single flow %d" spec.id)
        s.Runner.ccts
        (Array.to_list p.Shard.r_ccts))
    specs

let test_par_jobs_bit_identical () =
  let fabric = Fabric.fat_tree ~k:8 ~hosts_per_tor:4 ~gpus_per_host:2 () in
  List.iter
    (fun scheme ->
      let specs = specs_for fabric ~seed:11 ~n:6 ~scale:16 ~bytes:16e6 in
      let r1 = Par.run ~jobs:1 fabric scheme specs in
      let r4 = Par.run ~jobs:4 fabric scheme specs in
      let what = Scheme.to_string scheme in
      check_ccts_equal what
        (Array.to_list r1.Shard.r_ccts)
        (Array.to_list r4.Shard.r_ccts);
      Alcotest.(check int)
        (what ^ ": events") r1.Shard.r_events r4.Shard.r_events;
      Alcotest.(check bool)
        (what ^ ": fingerprint") true
        (r1.Shard.r_fingerprint = r4.Shard.r_fingerprint);
      Alcotest.(check bool)
        (what ^ ": makespan") true
        (Float.equal r1.Shard.r_makespan r4.Shard.r_makespan);
      Alcotest.(check bool)
        (what ^ ": busy") true
        (Array.for_all2 Float.equal r1.Shard.r_busy r4.Shard.r_busy))
    par_schemes

let random_config seed =
  let rng = Rng.create seed in
  let fabric =
    match Rng.int rng 3 with
    | 0 -> Fabric.fat_tree ~k:4 ~hosts_per_tor:2 ~gpus_per_host:2 ()
    | 1 -> Fabric.fat_tree ~k:4 ~hosts_per_tor:4 ()
    | _ -> Fabric.leaf_spine ~spines:2 ~leaves:4 ~hosts_per_leaf:4 ()
  in
  let scheme = List.nth par_schemes (Rng.int rng 5) in
  let bytes = 1e5 +. Rng.float rng 3e7 in
  let n = 1 + Rng.int rng 4 in
  let chunks = 1 + Rng.int rng 8 in
  let scale = 2 + Rng.int rng 7 in
  (fabric, scheme, bytes, n, chunks, scale)

(* Differential sweep: 60 deterministically derived configurations.
   seq == par exactness holds except at cross-flow timestamp ties
   (see [test_cross_flow_tie_divergence]) — so this sweep is a fixed,
   verified-tie-free corpus rather than a QCheck property: unseeded
   randomness could legitimately land on a tie and fail without a bug
   being present.  jobs-1 == jobs-n stays bit-exact unconditionally. *)
let test_par_differential_sweep () =
  for seed = 0 to 59 do
    let fabric, scheme, bytes, n, chunks, scale = random_config (1000 + seed) in
    let jobs = 2 + (seed mod 5) in
    let specs = specs_for fabric ~seed:(seed + 1) ~n ~scale ~bytes in
    let seq = Runner.run ~chunks fabric scheme specs in
    let r1 = Par.run ~chunks ~jobs:1 fabric scheme specs in
    let rn = Par.run ~chunks ~jobs fabric scheme specs in
    let what = Printf.sprintf "sweep %d (%s)" seed (Scheme.to_string scheme) in
    check_ccts_equal (what ^ ": seq == par") seq.Runner.ccts
      (Array.to_list r1.Shard.r_ccts);
    check_ccts_equal
      (what ^ ": jobs1 == jobsN")
      (Array.to_list r1.Shard.r_ccts)
      (Array.to_list rn.Shard.r_ccts);
    if r1.Shard.r_fingerprint <> rn.Shard.r_fingerprint then
      Alcotest.failf "%s: fingerprint" what;
    if not (Float.equal r1.Shard.r_makespan rn.Shard.r_makespan) then
      Alcotest.failf "%s: makespan" what;
    if not (Float.equal seq.Runner.makespan r1.Shard.r_makespan) then
      Alcotest.failf "%s: seq makespan" what;
    if not (Array.for_all2 Float.equal r1.Shard.r_busy rn.Shard.r_busy) then
      Alcotest.failf "%s: busy" what
  done

(* ------------------------------------------------------------------ *)
(* Plan and sharding input checks                                      *)
(* ------------------------------------------------------------------ *)

module Soa = Peel_sim.Soa

let small_fabric () = Fabric.fat_tree ~k:4 ~hosts_per_tor:2 ~gpus_per_host:2 ()

(* One ring collective at 2 chunks, flattened, with its links and a
   2-shard sharding. *)
let small_plan_inputs () =
  let fabric = small_fabric () in
  let specs = specs_for fabric ~seed:3 ~n:1 ~scale:4 ~bytes:1e6 in
  let flows =
    Par.flatten fabric (Peel_collective.Paths.create fabric) ~chunks:2 Scheme.Ring specs
  in
  let links = Soa.links_of_graph (Fabric.graph fabric) in
  (links, Soa.shard fabric ~jobs:2 ~min_bytes:5e5, flows.(0))

let raises_invalid what f =
  match f () with
  | _ -> Alcotest.failf "%s: accepted" what
  | exception Invalid_argument _ -> ()

(* Inputs the sequential engine rejects.  Unchecked, a NaN hangs
   Shard.run, a negative arrival offsets the CCT by its magnitude, zero
   or negative bytes give a nonsense CCT, and an infinite arrival ends
   in a missing-delivery Failure. *)
let test_plan_rejects_bad_flows () =
  let links, sharding, f = small_plan_inputs () in
  let cases =
    [
      ("arrival nan", { f with Soa.f_arrival = Float.nan });
      ("arrival -1", { f with Soa.f_arrival = -1.0 });
      ("arrival inf", { f with Soa.f_arrival = Float.infinity });
      ("chunk bytes nan", { f with Soa.f_chunk_bytes = Float.nan });
      ("chunk bytes 0", { f with Soa.f_chunk_bytes = 0.0 });
      ("chunk bytes -1e6", { f with Soa.f_chunk_bytes = -1e6 });
      ("chunk bytes inf", { f with Soa.f_chunk_bytes = Float.infinity });
    ]
  in
  ignore (Shard.plan ~links ~sharding [| f |]);
  List.iter
    (fun (what, bad) -> raises_invalid what (fun () -> Shard.plan ~links ~sharding [| bad |]))
    cases

(* A flow without destinations has no edge and sends nothing, so its
   chunk size is never used (as in Broadcast.launch). *)
let test_plan_destinationless_flow () =
  let links, sharding, f = small_plan_inputs () in
  let empty =
    { Soa.d_link = [||]; d_deliver = [||]; d_succ_off = [| 0 |]; d_succ = [||]; d_roots = [||] }
  in
  let idle = { f with Soa.f_chunk_bytes = Float.nan; f_expected = 0; f_dags = [| empty |] } in
  let r = Shard.run (Shard.plan ~links ~sharding [| idle; f |]) in
  Alcotest.(check (float 0.0)) "idle flow's CCT" 0.0 r.Shard.r_ccts.(0);
  Alcotest.(check bool) "other flow completes" true (r.Shard.r_ccts.(1) > 0.0)

let test_par_run_rejects_nan_bytes () =
  let fabric = small_fabric () in
  let specs =
    List.map
      (fun (s : Spec.collective) -> { s with Spec.bytes = Float.nan })
      (specs_for fabric ~seed:3 ~n:1 ~scale:4 ~bytes:1e6)
  in
  List.iter
    (fun jobs ->
      raises_invalid (Printf.sprintf "bytes nan, jobs %d" jobs) (fun () ->
          Par.run ~chunks:2 ~jobs fabric Scheme.Ring specs))
    [ 1; 2 ]

(* The key packs (flow, chunk, edge) into power-of-two fields: a
   2-edge DAG takes 1 bit and one flow none, so 2^61 chunks fill 62
   bits exactly and one chunk more needs a 63rd. *)
let test_plan_key_width () =
  let links, sharding, f = small_plan_inputs () in
  let d = f.Soa.f_dags.(0) in
  let two =
    {
      Soa.d_link = Array.sub d.Soa.d_link 0 2;
      d_deliver = [| -1; -1 |];
      d_succ_off = [| 0; 1; 1 |];
      d_succ = [| 1 |];
      d_roots = [| 0 |];
    }
  in
  let with_chunks n = [| { f with Soa.f_chunks = n; f_dags = [| two |] } |] in
  ignore (Shard.plan ~links ~sharding (with_chunks (1 lsl 61)));
  raises_invalid "63-bit key" (fun () ->
      Shard.plan ~links ~sharding (with_chunks ((1 lsl 61) + 1)))

(* NaN fails [min_bytes <= 0] too, and would have set a 2-shard
   lookahead of infinity: one window, cross-shard events behind it. *)
let test_shard_rejects_nan_min_bytes () =
  let fabric = small_fabric () in
  List.iter
    (fun m ->
      raises_invalid (Printf.sprintf "min_bytes %g" m) (fun () ->
          Soa.shard fabric ~jobs:2 ~min_bytes:m))
    [ Float.nan; 0.0; -1.0 ];
  let s = Soa.shard fabric ~jobs:2 ~min_bytes:1e6 in
  Alcotest.(check bool) "finite lookahead at 2 shards" true
    (s.Soa.s_n = 2 && Float.is_finite s.Soa.s_lookahead)

(* One shard: everything on shard 0, no window bound. *)
let test_shard_single () =
  let fabric = small_fabric () in
  let s = Soa.shard fabric ~jobs:1 ~min_bytes:1e6 in
  let g = Fabric.graph fabric in
  Alcotest.(check int) "one shard" 1 s.Soa.s_n;
  Alcotest.(check bool) "nodes on 0" true
    (Array.length s.Soa.s_of_node = Graph.num_nodes g && Array.for_all (( = ) 0) s.Soa.s_of_node);
  Alcotest.(check bool) "links on 0" true
    (Array.length s.Soa.s_of_link = Graph.num_links g && Array.for_all (( = ) 0) s.Soa.s_of_link);
  Alcotest.(check bool) "no lookahead bound" true (s.Soa.s_lookahead = Float.infinity)

(* ------------------------------------------------------------------ *)
(* SIM008: shard-boundary causality audit                              *)
(* ------------------------------------------------------------------ *)

module D = Peel_check.Diagnostic

(* A live multi-shard run with audits on must lint clean. *)
let test_sim008_clean_run () =
  let fabric = Fabric.fat_tree ~k:8 ~hosts_per_tor:4 ~gpus_per_host:2 () in
  let specs = specs_for fabric ~seed:11 ~n:6 ~scale:16 ~bytes:16e6 in
  List.iter
    (fun scheme ->
      let r = Par.run ~audit:true ~jobs:4 fabric scheme specs in
      Alcotest.(check bool)
        (Scheme.to_string scheme ^ ": audit present") true
        (Array.length r.Shard.r_audit > 0);
      let ds = Peel_check.Check_sim.check_shard r in
      if ds <> [] then
        Alcotest.failf "%s: %s" (Scheme.to_string scheme)
          (String.concat "; " (List.map D.to_string ds)))
    par_schemes

(* Each causality violation, injected into an otherwise-consistent
   audit, must be diagnosed as SIM008. *)
let test_sim008_detects_violations () =
  let base = Par.run ~audit:true ~jobs:4
    (Fabric.fat_tree ~k:8 ~hosts_per_tor:4 ~gpus_per_host:2 ())
    Scheme.Btree
    (specs_for
       (Fabric.fat_tree ~k:8 ~hosts_per_tor:4 ~gpus_per_host:2 ())
       ~seed:11 ~n:6 ~scale:16 ~bytes:16e6)
  in
  Alcotest.(check bool) "base is clean" true
    (Peel_check.Check_sim.check_shard base = []);
  let corrupt name f =
    let audit = Array.map (fun a -> a) base.Shard.r_audit in
    let r = f { base with Shard.r_audit = audit } in
    let ds = Peel_check.Check_sim.check_shard r in
    Alcotest.(check bool) (name ^ ": flagged as SIM008") true
      (D.has_code "SIM008" ds)
  in
  (* An event executed at (or past) its window bound. *)
  corrupt "max_exec >= bound" (fun r ->
      let a = r.Shard.r_audit.(0) in
      r.Shard.r_audit.(0) <- { a with Shard.a_max_exec = a.Shard.a_bound };
      r);
  (* A cross-shard event arriving before the bound it was promised
     not to precede. *)
  corrupt "min_in < bound" (fun r ->
      let a = r.Shard.r_audit.(0) in
      r.Shard.r_audit.(0) <-
        { a with Shard.a_min_in = a.Shard.a_bound -. 1e-9 };
      r);
  (* A shard skipping a window ordinal. *)
  corrupt "window gap" (fun r ->
      let a = r.Shard.r_audit.(0) in
      r.Shard.r_audit.(0) <- { a with Shard.a_window = a.Shard.a_window + 1 };
      r);
  (* A window bound that fails to advance. *)
  corrupt "stuck bound" (fun r ->
      let per_shard = Hashtbl.create 8 in
      Array.iteri
        (fun i (a : Shard.audit_record) ->
          match Hashtbl.find_opt per_shard a.Shard.a_shard with
          | None -> Hashtbl.add per_shard a.Shard.a_shard i
          | Some first when i > first && Float.is_finite a.Shard.a_bound ->
              let b = r.Shard.r_audit.(first).Shard.a_bound in
              if Float.is_finite b then
                r.Shard.r_audit.(i) <- { a with Shard.a_bound = b }
          | Some _ -> ())
        r.Shard.r_audit;
      r);
  (* A dropped record desynchronizes the barrier-epoch counts. *)
  corrupt "unequal epochs" (fun r ->
      {
        r with
        Shard.r_audit =
          Array.sub r.Shard.r_audit 0 (Array.length r.Shard.r_audit - 1);
      });
  (* Events that no audited window accounts for. *)
  corrupt "event conservation" (fun r ->
      { r with Shard.r_events = r.Shard.r_events + 1 });
  (* An empty audit is vacuously clean (audits off). *)
  Alcotest.(check bool) "empty audit passes" true
    (Peel_check.Check_sim.check_shard { base with Shard.r_audit = [||] } = [])

(* The universal property — sharded execution is bit-identical for
   every jobs count — holds for ALL inputs (ties included), so it is
   safe under QCheck's own randomness. *)
let qcheck_par_jobs_invariant =
  QCheck.Test.make ~count:40 ~name:"sharded jobs-1 == jobs-n (random)"
    QCheck.(pair (int_range 0 100000) (int_range 2 6))
    (fun (seed, jobs) ->
      let fabric, scheme, bytes, n, chunks, scale = random_config seed in
      let specs = specs_for fabric ~seed:(seed + 1) ~n ~scale ~bytes in
      let r1 = Par.run ~chunks ~jobs:1 fabric scheme specs in
      let rn = Par.run ~chunks ~jobs fabric scheme specs in
      List.for_all2 Float.equal
        (Array.to_list r1.Shard.r_ccts)
        (Array.to_list rn.Shard.r_ccts)
      && r1.Shard.r_fingerprint = rn.Shard.r_fingerprint
      && Float.equal r1.Shard.r_makespan rn.Shard.r_makespan
      && Array.for_all2 Float.equal r1.Shard.r_busy rn.Shard.r_busy)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "parsim"
    [
      ( "grow_boundary",
        [
          Alcotest.test_case "heap equal-prio FIFO" `Quick test_heap_grow_boundary_fifo;
          Alcotest.test_case "mixed classes at boundary" `Quick test_heap_grow_boundary_mixed;
        ] );
      ( "engine_order",
        [
          Alcotest.test_case "(time, stamp) order" `Quick
            test_engine_time_then_stamp_order;
        ] );
      ( "sharded",
        [
          Alcotest.test_case "par == sequential (fixed)" `Quick test_par_matches_sequential;
          Alcotest.test_case "cross-flow tie divergence" `Quick test_cross_flow_tie_divergence;
          Alcotest.test_case "jobs-1 == jobs-4" `Quick test_par_jobs_bit_identical;
          Alcotest.test_case "differential sweep" `Quick test_par_differential_sweep;
          qt qcheck_par_jobs_invariant;
        ] );
      ( "inputs",
        [
          Alcotest.test_case "plan rejects bad flows" `Quick test_plan_rejects_bad_flows;
          Alcotest.test_case "destination-less flow" `Quick test_plan_destinationless_flow;
          Alcotest.test_case "Par.run rejects NaN bytes" `Quick test_par_run_rejects_nan_bytes;
          Alcotest.test_case "62-bit key limit" `Quick test_plan_key_width;
          Alcotest.test_case "shard rejects NaN min_bytes" `Quick test_shard_rejects_nan_min_bytes;
          Alcotest.test_case "one shard" `Quick test_shard_single;
        ] );
      ( "sim008",
        [
          Alcotest.test_case "clean run lints clean" `Quick test_sim008_clean_run;
          Alcotest.test_case "violations diagnosed" `Quick
            test_sim008_detects_violations;
        ] );
    ]
