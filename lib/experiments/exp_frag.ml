open Peel_workload
module Rng = Peel_util.Rng

type row = {
  fragmentation : float;
  mean_packets_exact : float;
  mean_packets_budget : float;
  mean_waste_budget : float;  (** over-covered racks per collective *)
  peel_mean_cct : float;
  optimal_mean_cct : float;
}

let budget = 1

let compute mode =
  let fabric = Common.fig5_fabric () in
  let n = Common.trials mode ~full:30 in
  List.map
    (fun fragmentation ->
      let cs =
        Spec.poisson_broadcasts fabric (Rng.create 500) ~n ~scale:128
          ~bytes:(Common.mb 32.) ~load:0.3 ~fragmentation ()
      in
      let plan_stats =
        List.map
          (fun (c : Spec.collective) ->
            let exact = Peel.Plan.build fabric ~source:c.source ~dests:c.dests in
            let budgeted =
              Peel.Plan.build ~budget fabric ~source:c.source ~dests:c.dests
            in
            ( float_of_int (Peel.Plan.num_packets exact),
              float_of_int (Peel.Plan.num_packets budgeted),
              float_of_int (Peel.Plan.waste_tor_count budgeted) ))
          cs
      in
      let avg f = Peel_util.Stats.mean (List.map f plan_stats) in
      let peel = Common.summarize_run fabric Peel_collective.Scheme.Peel cs in
      let opt = Common.summarize_run fabric Peel_collective.Scheme.Optimal cs in
      {
        fragmentation;
        mean_packets_exact = avg (fun (a, _, _) -> a);
        mean_packets_budget = avg (fun (_, b, _) -> b);
        mean_waste_budget = avg (fun (_, _, w) -> w);
        peel_mean_cct = peel.Peel_util.Stats.mean;
        optimal_mean_cct = opt.Peel_util.Stats.mean;
      })
    [ 0.0; 0.2; 0.4; 0.8 ]

let run mode =
  Common.note
    (Printf.sprintf "128-GPU 32 MB Broadcasts; budgeted covers capped at %d prefixes/group"
       budget);
  let rows = compute mode in
  Peel_util.Table.print
    ~header:
      [ "fragmentation"; "packets (exact)"; "packets (budget)";
        "wasted racks (budget)"; "PEEL mean CCT"; "optimal mean CCT" ]
    (List.map
       (fun r ->
         [
           Printf.sprintf "%.1f" r.fragmentation;
           Common.f2 r.mean_packets_exact;
           Common.f2 r.mean_packets_budget;
           Common.f2 r.mean_waste_budget;
           Common.fsec r.peel_mean_cct;
           Common.fsec r.optimal_mean_cct;
         ])
       rows);
  Common.note "fragmentation multiplies exact-cover packets; budgets trade them for redundant rack deliveries"
