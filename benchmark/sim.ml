(* sim-scale and sim-congestion: collectives taken from plan to
   simulated completion time.  sim-scale is dominated by route and tree
   construction ([Par.flatten], whose [Paths] BFS is most of it);
   sim-congestion by the event loop under DCQCN ([Engine], [Link_state],
   [Dcqcn]). *)

open Peel_topology
open Peel_workload
open Workload
module Rng = Peel_util.Rng
module Stats = Peel_util.Stats
module Scheme = Peel_collective.Scheme
module Par = Peel_collective.Par
module Paths = Peel_collective.Paths
module Runner = Peel_collective.Runner
module Broadcast = Peel_collective.Broadcast
module Soa = Peel_sim.Soa
module Shard = Peel_sim.Shard
module Trace = Peel_sim.Trace
module Telemetry = Peel_sim.Telemetry
module Check_sim = Peel_check.Check_sim
module Diagnostic = Peel_check.Diagnostic

let mb x = x *. 1e6
let fat_tree k = Fabric.fat_tree ~k ~hosts_per_tor:4 ~gpus_per_host:8 ()

let cct_findings scheme ccts =
  List.filter (fun c -> not (Float.is_finite c && c > 0.0)) ccts
  |> List.map (fun c -> Printf.sprintf "%s: collective completion time %g" (Scheme.to_string scheme) c)

let errors ds = Diagnostic.errors ds |> List.map Diagnostic.to_string

let cct_layers ccts =
  let s = Stats.summarize ccts in
  let n = List.length ccts in
  [
    layer "collective.cct_p50_ms" (s.Stats.p50 *. 1e3) n;
    layer "collective.cct_p99_ms" (s.Stats.p99 *. 1e3) n;
  ]

(* Paths.links on a fresh cache, one pair per distinct source, so every
   call runs one BFS. *)
let bfs_probe sp ~parent fabric (cs : Spec.collective list) =
  let seen = Hashtbl.create 64 in
  let pairs =
    List.filter_map
      (fun (c : Spec.collective) ->
        if Hashtbl.mem seen c.Spec.source || Hashtbl.length seen >= 64 then None
        else begin
          Hashtbl.add seen c.Spec.source ();
          Some (c.Spec.source, List.hd c.Spec.dests)
        end)
      cs
    |> Array.of_list
  in
  let n = Array.length pairs in
  let paths = Paths.create ~ecmp:true fabric in
  let ns =
    Spans.with_ sp ~parent ~calls:n "collective.paths.bfs" (fun _ ->
        let t0 = Util.now_ns () in
        Array.iter (fun (a, b) -> ignore (Paths.links paths a b)) pairs;
        Util.ns_since t0 /. float_of_int (max 1 n))
  in
  layer "collective.paths.bfs_ns" ns n

(* ---------------- sim-scale ---------------- *)

let scale_schemes = [ Scheme.Peel; Scheme.Ring; Scheme.Btree ]

let min_chunk_bytes flows =
  Array.fold_left (fun acc (f : Soa.flow) -> Float.min acc f.Soa.f_chunk_bytes) infinity flows

(* Events over the critical path (per-window maximum across shards,
   summed): the parallelism the barrier protocol can exploit. *)
let critical_path (r : Shard.result) =
  let crit = Hashtbl.create 64 in
  Array.iter
    (fun (a : Shard.audit_record) ->
      let cur = Option.value (Hashtbl.find_opt crit a.Shard.a_window) ~default:0 in
      Hashtbl.replace crit a.Shard.a_window (max cur a.Shard.a_events))
    r.Shard.r_audit;
  Hashtbl.fold (fun _ m acc -> acc + m) crit 0

(* A step of a unit, wrapped (in a span, in the traced run) under its
   layer name and scheme. *)
type phase = { phase : 'a. string -> string -> (unit -> 'a) -> 'a }

let scale_setup size ~seed ~jobs =
  let k, n, scale =
    match size with Smoke -> (8, 2, 64) | Bench -> (32, 6, 512) | Full -> (32, 32, 512)
  in
  let fabric = fat_tree k in
  let cs =
    Spec.poisson_broadcasts fabric (Rng.create (100 + seed)) ~n ~scale ~bytes:(mb 64.)
      ~load:0.3 ()
  in
  let links = Soa.links_of_graph (Fabric.graph fabric) in
  (* One unit: every scheme's collectives flattened, each planned on a
     fresh path cache (as independent jobs would be), then executed
     together on the sharded engine.  A fresh cache per collective keeps
     the route work, and the memory it holds, independent of how the
     seed's placements overlap.  [phase] wraps each step (spans in the
     traced run) and accumulates its seconds under its layer. *)
  let execute ~audit { phase } =
    List.map
      (fun scheme ->
        let tag = Scheme.to_string scheme in
        let flows =
          phase "collective.par.flatten" tag (fun () ->
              Array.concat
                (List.map
                   (fun c -> Par.flatten fabric (Paths.create ~ecmp:true fabric) ~chunks:8 scheme [ c ])
                   cs))
        in
        let plan =
          phase "sim.shard.plan" tag (fun () ->
              let sharding = Soa.shard fabric ~jobs ~min_bytes:(min_chunk_bytes flows) in
              Shard.plan ~links ~sharding flows)
        in
        (scheme, phase "sim.shard.run" tag (fun () -> Shard.run ~audit plan)))
      scale_schemes
  in
  let outcome results wall_s ~extra_checks =
    let peel = List.assoc Scheme.Peel results in
    let link_bytes = ref 0.0 in
    Array.iteri (fun l b -> link_bytes := !link_bytes +. (b *. links.Soa.l_bw.(l))) peel.Shard.r_busy;
    {
      ops = n * List.length results;
      wall_s;
      digest =
        Util.fnv
          (List.concat_map
             (fun (scheme, (r : Shard.result)) ->
               Scheme.to_string scheme :: string_of_int r.Shard.r_fingerprint
               :: List.map Util.float_key (Array.to_list r.Shard.r_ccts))
             results);
      sends = n;
      link_bytes = !link_bytes;
      check =
        (fun () ->
          List.concat_map
            (fun (scheme, (r : Shard.result)) -> cct_findings scheme (Array.to_list r.Shard.r_ccts))
            results
          @ extra_checks results);
    }
  in
  let run_unit () =
    let results, wall = Util.timed (fun () -> execute ~audit:false { phase = (fun _ _ f -> f ()) }) in
    outcome results wall ~extra_checks:(fun _ -> [])
  in
  let traced sp ~root =
    let secs = Hashtbl.create 8 in
    let phase layer tag f =
      let r, t = Util.timed (fun () -> Spans.with_ sp ~parent:root ~calls:n (layer ^ "/" ^ tag) (fun _ -> f ())) in
      Hashtbl.replace secs layer (t +. Option.value (Hashtbl.find_opt secs layer) ~default:0.0);
      r
    in
    let results, wall = Util.timed (fun () -> execute ~audit:true { phase }) in
    let sum f = List.fold_left (fun acc (_, r) -> acc + f r) 0 results in
    let events = sum (fun r -> r.Shard.r_events) in
    let crit = sum critical_path in
    let secs layer = Option.value (Hashtbl.find_opt secs layer) ~default:0.0 in
    let nschemes = List.length results in
    let layers =
      [
        layer "collective.par.flatten_s" (secs "collective.par.flatten") nschemes;
        layer "sim.shard.plan_s" (secs "sim.shard.plan") nschemes;
        layer "sim.shard.run_s" (secs "sim.shard.run") nschemes;
        layer "sim.shard.events" (float_of_int events) nschemes;
        layer "sim.shard.windows" (float_of_int (sum (fun r -> r.Shard.r_windows))) nschemes;
        layer "sim.shard.window_parallelism"
          (if crit = 0 then 1.0 else float_of_int events /. float_of_int crit)
          nschemes;
        bfs_probe sp ~parent:root fabric cs;
      ]
      @ cct_layers (Array.to_list (List.assoc Scheme.Peel results).Shard.r_ccts)
    in
    (* SIM008: the window audit of every sharded run. *)
    let sim008 rs = List.concat_map (fun (_, r) -> errors (Check_sim.check_shard r)) rs in
    (outcome results wall ~extra_checks:sim008, layers)
  in
  { run_unit; traced }

(* ---------------- sim-congestion ---------------- *)

let congestion_schemes = [ Scheme.Peel; Scheme.Ring ]
let dcqcn = Broadcast.Dcqcn { guard = Some Peel_sim.Dcqcn.default_guard; ecn_delay = 10e-6 }

let congestion_setup size ~seed ~jobs:_ =
  let n = match size with Smoke -> 6 | Bench -> 1000 | Full -> 3000 in
  let fabric = fat_tree 8 in
  let graph = Fabric.graph fabric in
  let cs =
    Spec.poisson_broadcasts fabric (Rng.create (5 + seed)) ~n ~scale:128 ~bytes:(mb 16.)
      ~load:0.5 ()
  in
  let bandwidth = Array.init (Graph.num_links graph) (fun l -> (Graph.link graph l).Graph.bandwidth) in
  let run ?trace scheme = (scheme, Runner.run ~cc:dcqcn ?trace fabric scheme cs) in
  let outcome results wall_s =
    let peel = List.assoc Scheme.Peel results in
    let horizon = Float.max peel.Runner.makespan 1e-9 in
    let link_bytes =
      Array.fold_left
        (fun acc (r : Telemetry.link_report) ->
          acc +. (r.Telemetry.utilization *. horizon *. bandwidth.(r.Telemetry.link)))
        0.0
        (Telemetry.reports peel.Runner.telemetry)
    in
    {
      ops = n * List.length results;
      wall_s;
      digest =
        Util.fnv
          (List.concat_map
             (fun (scheme, (o : Runner.outcome)) ->
               Scheme.to_string scheme :: string_of_int o.Runner.events
               :: List.map Util.float_key o.Runner.ccts)
             results);
      sends = n;
      link_bytes;
      check =
        (fun () ->
          List.concat_map
            (fun (scheme, (o : Runner.outcome)) ->
              cct_findings scheme o.Runner.ccts
              @ errors
                  (Check_sim.check_outcome ~expected:n ~ccts:o.Runner.ccts
                     ~makespan:o.Runner.makespan o.Runner.telemetry))
            results);
    }
  in
  let run_unit () =
    let results, wall = Util.timed (fun () -> List.map (fun s -> run s) congestion_schemes) in
    outcome results wall
  in
  (* The traced run executes every scheme untraced, with a Counters
     trace, and untraced again: the untraced runs give the cost per
     event and the allocation, the traced one the layer counts, and
     the traced wall over the mean untraced wall the tracing overhead
     (bracketing it cancels warm-up and drift). *)
  let traced sp ~root =
    let off_wall = ref 0.0 and on_wall = ref 0.0 and minor = ref 0.0 in
    let timed_run name scheme ?trace () =
      Util.timed (fun () ->
          Spans.with_ sp ~parent:root ~calls:n (name ^ "/" ^ Scheme.to_string scheme) (fun _ ->
              run ?trace scheme))
    in
    let per_scheme =
      List.map
        (fun scheme ->
          let mw0 = Gc.minor_words () in
          let off, t_off = timed_run "collective.runner.run" scheme () in
          minor := !minor +. (Gc.minor_words () -. mw0);
          let tr = Trace.create ~level:Trace.Counters () in
          let _, t_on = timed_run "collective.runner.run_traced" scheme ~trace:tr () in
          let _, t_off' = timed_run "collective.runner.run" scheme () in
          off_wall := !off_wall +. ((t_off +. t_off') /. 2.0);
          on_wall := !on_wall +. t_on;
          (off, Trace.counters tr))
        congestion_schemes
    in
    let results = List.map fst per_scheme in
    let counters = List.map snd per_scheme in
    let sum f = List.fold_left (fun acc c -> acc + f c) 0 counters in
    let events = List.fold_left (fun acc (_, o) -> acc + o.Runner.events) 0 results in
    let fe = float_of_int events in
    let nschemes = List.length results in
    let layers =
      [
        layer "sim.engine.events" fe nschemes;
        layer "sim.engine.max_pending"
          (float_of_int (List.fold_left (fun acc c -> max acc c.Trace.engine_max_pending) 0 counters))
          nschemes;
        layer "sim.engine.ns_per_event" (if events = 0 then 0.0 else !off_wall *. 1e9 /. fe) events;
        layer "sim.link.reservations" (float_of_int (sum (fun c -> c.Trace.reservations))) nschemes;
        layer "sim.link.ecn_marks" (float_of_int (sum (fun c -> c.Trace.ecn_marks))) nschemes;
        layer "sim.dcqcn.cnps" (float_of_int (sum (fun c -> c.Trace.cnps))) nschemes;
        layer "sim.dcqcn.rate_cuts" (float_of_int (sum (fun c -> c.Trace.rate_cuts))) nschemes;
        layer "sim.runner.minor_words_per_event" (if events = 0 then 0.0 else !minor /. fe) events;
        layer "sim.trace.overhead_share" ((!on_wall /. !off_wall) -. 1.0) nschemes;
        bfs_probe sp ~parent:root fabric cs;
      ]
      @ cct_layers (List.assoc Scheme.Peel results).Runner.ccts
    in
    (outcome results !off_wall, layers)
  in
  { run_unit; traced }
