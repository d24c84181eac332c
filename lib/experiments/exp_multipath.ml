open Peel_workload
open Peel_collective
module Rng = Peel_util.Rng

type row = {
  label : string;
  mean : float;
  p99 : float;
  max_link_utilization : float;
}

let workload fabric mode =
  let n = Common.trials mode ~full:40 in
  Spec.poisson_broadcasts fabric (Rng.create 800) ~n ~scale:256
    ~bytes:(Common.mb 64.) ~load:0.5 ()

let compute_striping mode =
  let fabric = Common.fig5_fabric () in
  let cs = workload fabric mode in
  (* (ecmp, suffix, scheme) cells; the workload is immutable and shared. *)
  [
    (true, "", Scheme.Peel);
    (true, "", Scheme.Peel_multitree 2);
    (true, "", Scheme.Peel_multitree 4);
    (true, "", Scheme.Peel_multitree 8);
    (true, "", Scheme.Dbtree);
    (true, "", Scheme.Ring);
    (* The unicast side of the same tension: without per-flow ECMP,
       every cross-pod flow funnels onto the lowest-id core path — the
       tree schedules, whose logical edges criss-cross pods, collapse. *)
    (false, " (no ecmp)", Scheme.Dbtree);
  ]
  |> Common.par_trials (fun (ecmp, suffix, scheme) ->
         let out = Runner.run ~ecmp fabric scheme cs in
         let s = Runner.summarize out in
         {
           label = Scheme.to_string scheme ^ suffix;
           mean = s.Peel_util.Stats.mean;
           p99 = s.Peel_util.Stats.p99;
           max_link_utilization =
             Peel_sim.Telemetry.max_utilization out.Runner.telemetry;
         })

let compute_chunks mode =
  let fabric = Common.fig5_fabric () in
  let cs = workload fabric mode in
  Common.par_trials
    (fun chunks ->
      let s = Runner.summarize (Runner.run ~chunks fabric Scheme.Peel cs) in
      (chunks, s.Peel_util.Stats.mean, s.Peel_util.Stats.p99))
    [ 1; 2; 4; 8; 16; 32 ]

let run mode =
  Common.note "256-GPU 64 MB Broadcasts at 50% load on the Fig. 5 fat-tree";
  let rows = compute_striping mode in
  Peel_util.Table.print
    ~header:[ "scheme"; "mean CCT"; "p99 CCT"; "hottest link util" ]
    (List.map
       (fun r ->
         [
           r.label;
           Common.fsec r.mean;
           Common.fsec r.p99;
           Printf.sprintf "%.0f%%" (100.0 *. r.max_link_utilization);
         ])
       rows);
  Common.note
    "single trees funnel; striping spreads; unicast without ECMP funnels worst";
  Common.note "chunk-count ablation (the paper fixes 8):";
  Peel_util.Table.print
    ~header:[ "chunks"; "mean CCT"; "p99 CCT" ]
    (List.map
       (fun (c, mean, p99) ->
         [ string_of_int c; Common.fsec mean; Common.fsec p99 ])
       (compute_chunks mode))
