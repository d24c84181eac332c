open Peel_workload
open Peel_collective
module Rng = Peel_util.Rng

type row = {
  loss_rate : float;
  scheme : string;
  mean : float;
  p99 : float;
  retransmissions_per_collective : float;
}

let compute mode =
  let fabric = Common.fig5_fabric () in
  let n = Common.trials mode ~full:30 in
  let cs =
    Spec.poisson_broadcasts fabric (Rng.create 900) ~n ~scale:64
      ~bytes:(Common.mb 32.) ~load:0.3 ()
  in
  List.concat_map
    (fun loss_rate ->
      List.map
        (fun scheme ->
          let out, retx =
            if loss_rate = 0.0 then (Runner.run fabric scheme cs, 0)
            else begin
              let loss = Peel_sim.Transfer.loss_model ~seed:77 ~prob:loss_rate () in
              let out = Runner.run ~loss fabric scheme cs in
              (out, loss.Peel_sim.Transfer.retransmissions)
            end
          in
          let s = Runner.summarize out in
          {
            loss_rate;
            scheme = Scheme.to_string scheme;
            mean = s.Peel_util.Stats.mean;
            p99 = s.Peel_util.Stats.p99;
            retransmissions_per_collective = float_of_int retx /. float_of_int n;
          })
        [ Scheme.Peel; Scheme.Ring ])
    [ 0.0; 1e-4; 1e-3; 1e-2 ]

let run mode =
  Common.note "64-GPU 32 MB Broadcasts at 30% load; RTO 100 us";
  let rows = compute mode in
  Peel_util.Table.print
    ~header:[ "loss rate"; "scheme"; "mean CCT"; "p99 CCT"; "retx/collective" ]
    (List.map
       (fun r ->
         [
           Printf.sprintf "%.0e" r.loss_rate;
           r.scheme;
           Common.fsec r.mean;
           Common.fsec r.p99;
           Printf.sprintf "%.1f" r.retransmissions_per_collective;
         ])
       rows);
  Common.note
    "random loss is repaired hop-locally on every scheme (selective repeat at \
     the lossy edge); only down links trigger end-to-end repairs from the source"
