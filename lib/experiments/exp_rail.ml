open Peel_topology
open Peel_workload
module Rng = Peel_util.Rng
module Scheme = Peel_collective.Scheme

type row = {
  scheme : Scheme.t;
  mean : float;
  p99 : float;
}

(* 8 rails x 8 groups x 16 servers = 1024 GPUs, like the Fig. 5 scale. *)
let fabric () = Fabric.rail ~rails:8 ~groups:8 ~servers_per_group:16 ~spines:16 ()

let compute mode =
  let f = fabric () in
  let n = Common.trials mode ~full:40 in
  let cs =
    Spec.poisson_broadcasts f (Rng.create 1500) ~n ~scale:128
      ~bytes:(Common.mb 64.) ~load:0.3 ()
  in
  List.map
    (fun scheme ->
      let s = Common.summarize_run f scheme cs in
      { scheme; mean = s.Peel_util.Stats.mean; p99 = s.Peel_util.Stats.p99 })
    Scheme.all

let run mode =
  let f = fabric () in
  Common.note (Fabric.describe f);
  Common.note
    (Printf.sprintf "128-GPU 64 MB Broadcasts at 30%% load; PEEL state: %d rules, %d B header"
       (Peel.switch_rules f) (Peel.header_bytes f));
  let rows = compute mode in
  Peel_util.Table.print
    ~header:[ "scheme"; "mean CCT"; "p99 CCT" ]
    (List.map
       (fun r ->
         [ Scheme.to_string r.scheme; Common.fsec r.mean; Common.fsec r.p99 ])
       rows);
  Common.note "the flat rail-ToR id space drops into the same k-1-rule prefix machinery"
