open Peel_topology
open Peel_workload
open Peel_collective
module Rng = Peel_util.Rng

type row = {
  op : string;
  algo : string;
  size_mb : float;
  mean : float;
  p99 : float;
}

let fabric () = Fabric.fat_tree ~k:8 ~hosts_per_tor:4 ~gpus_per_host:1 ()

let sizes mode =
  match mode with
  | Common.Full -> [ 8.; 64.; 256. ]
  | Common.Quick -> [ 64. ]

let compute mode =
  let f = fabric () in
  let n = Common.trials mode ~full:30 in
  let workload bytes =
    Spec.poisson_broadcasts f (Rng.create 700) ~n ~scale:64 ~bytes ~load:0.3 ()
  in
  let summary out =
    let s = Peel_collective.Runner.summarize out in
    (s.Peel_util.Stats.mean, s.Peel_util.Stats.p99)
  in
  let variants =
    [
      ("allgather", "ring", fun cs -> Allgather.run f Allgather.Ring_exchange cs);
      ("allgather", "peel", fun cs -> Allgather.run f Allgather.Peel_multicast cs);
      ("reduce", "ring", fun cs -> Reduce.run f Reduce.Ring_pass cs);
      ("reduce", "tree", fun cs -> Reduce.run f Reduce.Btree_reduce cs);
      ("allreduce", "ring", fun cs -> Allreduce.run f Allreduce.Ring_rs_ag cs);
      ( "allreduce",
        "reduce+peel",
        fun cs -> Allreduce.run f Allreduce.Reduce_then_peel cs );
    ]
  in
  List.concat_map
    (fun size_mb ->
      List.map (fun (op, algo, go) -> (size_mb, op, algo, go)) variants)
    (sizes mode)
  |> Common.par_trials (fun (size_mb, op, algo, go) ->
         let cs = workload (Common.mb size_mb) in
         let mean, p99 = summary (go cs) in
         { op; algo; size_mb; mean; p99 })

let run mode =
  Common.note "8-ary fat-tree, 1 GPU/server, 64-worker collectives at 30% load";
  let rows = compute mode in
  Peel_util.Table.print
    ~header:[ "collective"; "algorithm"; "size"; "mean CCT"; "p99 CCT" ]
    (List.map
       (fun r ->
         [
           r.op;
           r.algo;
           Printf.sprintf "%.0f MB" r.size_mb;
           Common.fsec r.mean;
           Common.fsec r.p99;
         ])
       rows);
  Common.note "multicast lifts allgather directly; reduce still rides unicast trees"
