open Peel_workload
module Rng = Peel_util.Rng
module Scheme = Peel_collective.Scheme

type row = {
  scale : int;
  scheme : Scheme.t;
  mean : float;
  p99 : float;
}

let compute mode scales =
  let fabric = Common.fig5_fabric () in
  let n = Common.trials mode ~full:60 in
  List.concat_map
    (fun scale -> List.map (fun scheme -> (scale, scheme)) Scheme.all)
    scales
  |> Common.par_trials (fun (scale, scheme) ->
         let cs =
           Spec.poisson_broadcasts fabric (Rng.create 100) ~n ~scale
             ~bytes:(Common.mb 64.) ~load:0.3 ()
         in
         let s = Common.summarize_run fabric scheme cs in
         { scale; scheme; mean = s.Peel_util.Stats.mean; p99 = s.Peel_util.Stats.p99 })

let scales_for mode =
  match mode with
  | Common.Full -> [ 32; 64; 128; 256; 512; 1024 ]
  | Common.Quick -> [ 32; 256 ]

let run mode =
  let scales = scales_for mode in
  let rows = compute mode scales in
  let find scale scheme =
    List.find (fun r -> r.scale = scale && r.scheme = scheme) rows
  in
  let table pick label =
    Common.note label;
    Peel_util.Table.print
      ~header:("scale" :: List.map Scheme.to_string Scheme.all)
      (List.map
         (fun scale ->
           string_of_int scale
           :: List.map (fun s -> Common.fsec (pick (find scale s))) Scheme.all)
         scales)
  in
  table (fun r -> r.mean) "mean CCT:";
  table (fun r -> r.p99) "p99 CCT:";
  if List.mem 256 scales then begin
    let at = find 256 in
    Common.note
      (Printf.sprintf
         "at 256 GPUs, PEEL mean is %.1fx lower than Ring, %.1fx than Tree, %.1fx than Orca (paper: 5x / 13x / 2.5x)"
         ((at Scheme.Ring).mean /. (at Scheme.Peel).mean)
         ((at Scheme.Btree).mean /. (at Scheme.Peel).mean)
         ((at Scheme.Orca).mean /. (at Scheme.Peel).mean))
  end
