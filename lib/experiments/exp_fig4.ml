open Peel_workload
module Rng = Peel_util.Rng

type row = {
  size_mb : float;
  mean_with : float;
  mean_without : float;
  p99_with : float;
  p99_without : float;
}

let sizes mode =
  match mode with
  | Common.Full -> [ 2.; 4.; 8.; 16.; 32.; 64.; 128.; 256.; 512. ]
  | Common.Quick -> [ 2.; 32.; 512. ]

let compute mode =
  let fabric = Common.fig5_fabric () in
  let n = Common.trials mode ~full:60 in
  List.map
    (fun size_mb ->
      let workload seed =
        Spec.poisson_broadcasts fabric (Rng.create seed) ~n ~scale:64
          ~bytes:(Common.mb size_mb) ~load:0.3 ()
      in
      let with_ctl =
        Common.summarize_run fabric Peel_collective.Scheme.Orca (workload 100)
      in
      let without =
        Common.summarize_run ~controller:false fabric
          Peel_collective.Scheme.Orca (workload 100)
      in
      {
        size_mb;
        mean_with = with_ctl.Peel_util.Stats.mean;
        mean_without = without.Peel_util.Stats.mean;
        p99_with = with_ctl.Peel_util.Stats.p99;
        p99_without = without.Peel_util.Stats.p99;
      })
    (sizes mode)

let run mode =
  Common.note "8-ary fat-tree, 1024 GPUs; 64-GPU Broadcasts at 30% load";
  let rows = compute mode in
  Peel_util.Table.print
    ~header:
      [ "msg size"; "mean CCT (ctl)"; "mean CCT (no ctl)"; "p99 (ctl)";
        "p99 (no ctl)"; "p99 inflation" ]
    (List.map
       (fun r ->
         [
           Printf.sprintf "%.0f MB" r.size_mb;
           Common.fsec r.mean_with;
           Common.fsec r.mean_without;
           Common.fsec r.p99_with;
           Common.fsec r.p99_without;
           Peel_util.Table.ffactor (r.p99_with /. r.p99_without);
         ])
       rows);
  Common.note "paper: p99 CCT of a 32 MB Broadcast rises ~8x with the controller"
