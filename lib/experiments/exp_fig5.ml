open Peel_workload
module Rng = Peel_util.Rng
module Scheme = Peel_collective.Scheme

type row = {
  size_mb : float;
  scheme : Scheme.t;
  mean : float;
  p99 : float;
}

let compute ?(scales = 512) mode sizes_mb =
  let fabric = Common.fig5_fabric () in
  let n = Common.trials mode ~full:60 in
  (* One cell per (size, scheme): each regenerates its workload from a
     fixed seed and never mutates the shared fabric, so the fan-out is
     bit-identical to the sequential sweep. *)
  List.concat_map
    (fun size_mb -> List.map (fun scheme -> (size_mb, scheme)) Scheme.all)
    sizes_mb
  |> Common.par_trials (fun (size_mb, scheme) ->
         let cs =
           Spec.poisson_broadcasts fabric (Rng.create 100) ~n ~scale:scales
             ~bytes:(Common.mb size_mb) ~load:0.3 ()
         in
         let s = Common.summarize_run fabric scheme cs in
         { size_mb; scheme; mean = s.Peel_util.Stats.mean; p99 = s.Peel_util.Stats.p99 })

let print_rows rows sizes =
  let find size scheme =
    List.find (fun r -> r.size_mb = size && r.scheme = scheme) rows
  in
  let table pick label =
    Common.note label;
    Peel_util.Table.print
      ~header:("msg size" :: List.map Scheme.to_string Scheme.all)
      (List.map
         (fun size ->
           Printf.sprintf "%.0f MB" size
           :: List.map (fun s -> Common.fsec (pick (find size s))) Scheme.all)
         sizes)
  in
  table (fun r -> r.mean) "mean CCT:";
  table (fun r -> r.p99) "p99 CCT:"

let sizes_for mode =
  match mode with
  | Common.Full -> [ 2.; 4.; 8.; 16.; 32.; 64.; 128.; 256.; 512. ]
  | Common.Quick -> [ 2.; 32.; 512. ]

let run mode =
  let sizes = sizes_for mode in
  let rows = compute mode sizes in
  print_rows rows sizes;
  (* Paper-shaped headline ratios at the extremes. *)
  let at size scheme =
    List.find (fun r -> r.size_mb = size && r.scheme = scheme) rows
  in
  let small = List.hd sizes and big = List.nth sizes (List.length sizes - 1) in
  Common.note
    (Printf.sprintf "PEEL mean vs optimal: %+.0f%% at %.0f MB, %+.0f%% at %.0f MB (paper: +23%% / +18%%)"
       (100. *. ((at small Scheme.Peel).mean /. (at small Scheme.Optimal).mean -. 1.))
       small
       (100. *. ((at big Scheme.Peel).mean /. (at big Scheme.Optimal).mean -. 1.))
       big);
  Common.note
    (Printf.sprintf "PEEL p99 vs Orca: %.1fx lower at %.0f MB, %+.0f%% at %.0f MB (paper: 101x / -21%%)"
       ((at small Scheme.Orca).p99 /. (at small Scheme.Peel).p99)
       small
       (100. *. ((at big Scheme.Peel).p99 /. (at big Scheme.Orca).p99 -. 1.))
       big);
  Common.note
    (Printf.sprintf "PEEL+cores p99 vs optimal at %.0f MB: %+.1f%% (paper: +1.4%%); vs PEEL: %+.0f%%"
       big
       (100. *. ((at big Scheme.Peel_prog_cores).p99 /. (at big Scheme.Optimal).p99 -. 1.))
       (100. *. ((at big Scheme.Peel_prog_cores).p99 /. (at big Scheme.Peel).p99 -. 1.)))
