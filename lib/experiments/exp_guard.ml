open Peel_workload
module Rng = Peel_util.Rng

type result = {
  mean_guard : float;
  mean_no_guard : float;
  p99_guard : float;
  p99_no_guard : float;
}

let compute mode =
  let fabric = Common.fig5_fabric () in
  let n = Common.trials mode ~full:40 in
  (* Enough offered load that queues build and chunks get marked. *)
  let cs =
    Spec.poisson_broadcasts fabric (Rng.create 300) ~n ~scale:64
      ~bytes:(Common.mb 32.) ~load:0.6 ()
  in
  let run guard =
    Common.summarize_run
      ~cc:(Peel_collective.Broadcast.Dcqcn { guard; ecn_delay = 10e-6 })
      fabric Peel_collective.Scheme.Peel cs
  in
  let g = run (Some Peel_sim.Dcqcn.default_guard) in
  let ng = run None in
  {
    mean_guard = g.Peel_util.Stats.mean;
    mean_no_guard = ng.Peel_util.Stats.mean;
    p99_guard = g.Peel_util.Stats.p99;
    p99_no_guard = ng.Peel_util.Stats.p99;
  }

let run mode =
  let r = compute mode in
  Peel_util.Table.print
    ~header:[ "variant"; "mean CCT"; "p99 CCT" ]
    [
      [ "guard timer (50 us)"; Common.fsec r.mean_guard; Common.fsec r.p99_guard ];
      [ "per-CNP reaction"; Common.fsec r.mean_no_guard; Common.fsec r.p99_no_guard ];
      [
        "improvement";
        Peel_util.Table.ffactor (r.mean_no_guard /. r.mean_guard);
        Peel_util.Table.ffactor (r.p99_no_guard /. r.p99_guard);
      ];
    ];
  Common.note "paper: the guard timer slashes p99 CCT by ~12x"
