open Peel_topology
open Peel_workload
module Rng = Peel_util.Rng
module Scheme = Peel_collective.Scheme

type row = {
  failure_pct : int;
  scheme : Scheme.t;
  mean : float;
  p99 : float;
}

let schemes = [ Scheme.Ring; Scheme.Btree; Scheme.Peel ]

(* Each failure draw hosts a Poisson stream of 64-GPU Broadcasts, so the
   capacity lost to failed spine-leaf links shows up as queueing — the
   paper repeats the broadcast under each failure level. *)
let per_draw = 10

let compute mode pcts =
  let draws = Common.trials mode ~full:12 in
  (* Failure cells mutate link state ([fail_random] / [restore_all]),
     so — unlike the other sweeps — each cell builds its own fabric.
     The per-cell rng seed depends only on the failure level, so the
     draws are the ones the sequential sweep made. *)
  List.concat_map
    (fun failure_pct -> List.map (fun scheme -> (failure_pct, scheme)) schemes)
    pcts
  |> Common.par_trials (fun (failure_pct, scheme) ->
         let fabric = Common.fig7_fabric () in
         let g = Fabric.graph fabric in
         let rng = Rng.create (1000 + failure_pct) in
         let ccts =
           List.concat
             (List.init draws (fun _ ->
                  Graph.restore_all g;
                  let _ =
                    Fabric.fail_random fabric ~rng ~tier:`All
                      ~fraction:(float_of_int failure_pct /. 100.0)
                      ()
                  in
                  let cs =
                    Spec.poisson_broadcasts fabric rng ~n:per_draw ~scale:64
                      ~bytes:(Common.mb 8.) ~load:0.5 ()
                  in
                  let out = Peel_collective.Runner.run fabric scheme cs in
                  out.Peel_collective.Runner.ccts))
         in
         let s = Peel_util.Stats.summarize ccts in
         {
           failure_pct;
           scheme;
           mean = s.Peel_util.Stats.mean;
           p99 = s.Peel_util.Stats.p99;
         })

let run mode =
  Common.note
    "16x48 leaf-spine, 768 GPUs; streams of 64-GPU 8 MB Broadcasts; random spine-leaf failures";
  let pcts = [ 1; 2; 4; 8; 10 ] in
  let rows = compute mode pcts in
  let find pct scheme =
    List.find (fun r -> r.failure_pct = pct && r.scheme = scheme) rows
  in
  let table pick label =
    Common.note label;
    Peel_util.Table.print
      ~header:("failures" :: List.map Scheme.to_string schemes)
      (List.map
         (fun pct ->
           Printf.sprintf "%d%%" pct
           :: List.map (fun s -> Common.fsec (pick (find pct s))) schemes)
         pcts)
  in
  table (fun r -> r.mean) "mean CCT:";
  table (fun r -> r.p99) "p99 CCT:";
  let at = find 10 in
  Common.note
    (Printf.sprintf
       "at 10%% failures, PEEL p99 is %.1fx lower than Ring and %.1fx lower than Tree (paper: 3x / 30x)"
       ((at Scheme.Ring).p99 /. (at Scheme.Peel).p99)
       ((at Scheme.Btree).p99 /. (at Scheme.Peel).p99))
