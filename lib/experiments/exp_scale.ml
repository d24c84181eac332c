open Peel_topology
open Peel_workload
module Rng = Peel_util.Rng
module Json = Peel_util.Json
module Scheme = Peel_collective.Scheme
module Par = Peel_collective.Par
module Paths = Peel_collective.Paths
module Soa = Peel_sim.Soa
module Shard = Peel_sim.Shard

type row = {
  k : int;
  gpus : int;
  scheme : Scheme.t;
  mean : float;
  p99 : float;
  events : int;
  windows : int;
  parallelism : float;
}

let schemes = [ Scheme.Ring; Scheme.Btree; Scheme.Optimal; Scheme.Peel ]

let fabric_for k = Fabric.fat_tree ~k ~hosts_per_tor:4 ~gpus_per_host:8 ()

let ks_for = function Common.Quick -> [ 16; 32 ] | Common.Full -> [ 16; 32; 64 ]

(* Deterministic window-parallelism of a sharded run: total events over
   the critical path (the per-window maximum across shards, summed).
   This is what the barrier protocol can exploit on a given workload —
   a machine-independent ceiling on the wall-clock speedup, measurable
   even on a single-core host. *)
let window_parallelism (r : Shard.result) =
  if Array.length r.Shard.r_audit = 0 then 1.0
  else begin
    let crit = Hashtbl.create 64 in
    Array.iter
      (fun (a : Shard.audit_record) ->
        let cur = Option.value (Hashtbl.find_opt crit a.Shard.a_window) ~default:0 in
        Hashtbl.replace crit a.Shard.a_window (max cur a.Shard.a_events))
      r.Shard.r_audit;
    let path = Hashtbl.fold (fun _ m acc -> acc + m) crit 0 in
    if path = 0 then 1.0 else float_of_int r.Shard.r_events /. float_of_int path
  end

let workload fabric mode =
  let n = Common.trials mode ~full:20 in
  Spec.poisson_broadcasts fabric (Rng.create 100) ~n ~scale:512
    ~bytes:(Common.mb 64.) ~load:0.3 ()

let min_chunk_bytes flows =
  let m =
    Array.fold_left
      (fun acc (f : Soa.flow) -> Float.min acc f.Soa.f_chunk_bytes)
      infinity flows
  in
  if Float.is_finite m then m else 1.0

(* Flatten every scheme on one shared path cache (the schemes revisit
   the same hop pairs), then execute on 4 shards.  The sharded engine
   is bit-identical for every jobs value, so these rows are
   deterministic no matter how the harness is parallelized — which is
   what lets the bench guard pin them. *)
let compute mode ks =
  List.concat_map
    (fun k ->
      let fabric = fabric_for k in
      let cs = workload fabric mode in
      let gpus = Fabric.num_endpoints fabric in
      let paths = Paths.create ~ecmp:true fabric in
      let links = Soa.links_of_graph (Fabric.graph fabric) in
      List.map
        (fun scheme ->
          let flows = Par.flatten fabric paths ~chunks:8 scheme cs in
          let sharding =
            Soa.shard fabric ~jobs:4 ~min_bytes:(min_chunk_bytes flows)
          in
          let r = Shard.run ~audit:true (Shard.plan ~links ~sharding flows) in
          let s = Peel_util.Stats.summarize (Array.to_list r.Shard.r_ccts) in
          {
            k;
            gpus;
            scheme;
            mean = s.Peel_util.Stats.mean;
            p99 = s.Peel_util.Stats.p99;
            events = r.Shard.r_events;
            windows = r.Shard.r_windows;
            parallelism = window_parallelism r;
          })
        schemes)
    ks

let rows_json mode =
  Json.Arr
    (List.map
       (fun r ->
         Json.Obj
           [
             ("k", Json.int r.k);
             ("gpus", Json.int r.gpus);
             ("scheme", Json.str (Scheme.to_string r.scheme));
             ("mean", Json.num r.mean);
             ("p99", Json.num r.p99);
             ("events", Json.int r.events);
             ("windows", Json.int r.windows);
             ("parallelism", Json.num r.parallelism);
           ])
       (compute mode (ks_for mode)))

let speedup_jobs = 4

(* Wall-clock of the event loop alone (flatten is hoisted out: it does
   not depend on the jobs count) at jobs=1 vs jobs=4, after a warmup
   run of each plan.  Machine-dependent, so this section is recorded in
   BENCH.json but NOT guarded — the deterministic [parallelism] column
   is the portable capability number. *)
let speedup mode =
  let k = List.fold_left max 0 (ks_for mode) in
  let fabric = fabric_for k in
  let cs = workload fabric mode in
  let paths = Paths.create ~ecmp:true fabric in
  let flows = Par.flatten fabric paths ~chunks:8 Scheme.Btree cs in
  let links = Soa.links_of_graph (Fabric.graph fabric) in
  let min_bytes = min_chunk_bytes flows in
  let time jobs =
    let sharding = Soa.shard fabric ~jobs ~min_bytes in
    let plan = Shard.plan ~links ~sharding flows in
    ignore (Shard.run plan);
    let t0 = Unix.gettimeofday () in
    let r = Shard.run plan in
    (Unix.gettimeofday () -. t0, r)
  in
  let w1, r1 = time 1 in
  let wn, rn = time speedup_jobs in
  assert (r1.Shard.r_fingerprint = rn.Shard.r_fingerprint);
  (k, w1, wn, r1.Shard.r_events)

(* On a host with fewer cores than domains the ratio measures barrier
   overhead, not the engine's speedup, so it is left unmeasured. *)
let measured_speedup w1 wn =
  if Domain.recommended_domain_count () < speedup_jobs then None
  else Some (if wn > 0.0 then w1 /. wn else 1.0)

let speedup_json mode =
  let k, w1, wn, events = speedup mode in
  Json.Obj
    [
      ("k", Json.int k);
      ("scheme", Json.str (Scheme.to_string Scheme.Btree));
      ("events", Json.int events);
      ("wall_s_jobs1", Json.num w1);
      ("wall_s_jobs4", Json.num wn);
      ("speedup", Option.fold ~none:Json.Null ~some:Json.num (measured_speedup w1 wn));
      ("host_cores", Json.int (Domain.recommended_domain_count ()));
    ]

let run mode =
  Common.banner
    "E19: sharded-engine scale sweep (fat-trees beyond fig6, 512-GPU groups, 64 MB)";
  let ks = ks_for mode in
  let rows = compute mode ks in
  Peel_util.Table.print
    ~header:[ "k"; "gpus"; "scheme"; "mean"; "p99"; "events"; "windows"; "parallelism" ]
    (List.map
       (fun r ->
         [
           string_of_int r.k;
           string_of_int r.gpus;
           Scheme.to_string r.scheme;
           Common.fsec r.mean;
           Common.fsec r.p99;
           string_of_int r.events;
           string_of_int r.windows;
           Common.f2 r.parallelism;
         ])
       rows);
  let k, w1, wn, events = speedup mode in
  Common.note
    (Printf.sprintf
       "k=%d tree event loop: %.4f s at jobs=1, %.4f s at jobs=%d (%s, %d events, %d host core(s))"
       k w1 wn speedup_jobs
       (match measured_speedup w1 wn with
       | Some s -> Printf.sprintf "%.2fx" s
       | None -> "speedup unmeasured")
       events
       (Domain.recommended_domain_count ()))
