open Peel_topology
open Peel_steiner
module Rng = Peel_util.Rng

type cost_row = {
  failure_pct : int;
  trials : int;
  mean_ratio : float;  (** greedy cost / exact optimum *)
  max_ratio : float;
  optimal_rate : float;  (** fraction of trials where greedy = optimum *)
}

let compute_cost mode =
  let trials = Common.trials mode ~full:200 in
  List.map
    (fun failure_pct ->
      let rng = Rng.create (7000 + failure_pct) in
      let ratios =
        List.init trials (fun _ ->
            let f = Fabric.leaf_spine ~spines:3 ~leaves:6 ~hosts_per_leaf:2 () in
            let g = Fabric.graph f in
            let _ =
              Fabric.fail_random f ~rng ~tier:`All
                ~fraction:(float_of_int failure_pct /. 100.0)
                ()
            in
            let hosts = Fabric.hosts f in
            let n = Array.length hosts in
            let source = hosts.(Rng.int rng n) in
            let dests =
              Rng.sample_without_replacement rng n 6
              |> List.map (fun i -> hosts.(i))
              |> List.filter (fun d -> d <> source)
            in
            let greedy =
              match Layer_peel.build g ~source ~dests with
              | Some t -> Tree.cost t
              | None -> assert false
            in
            let exact =
              match Exact.steiner_cost g ~terminals:(source :: dests) with
              | Some c -> c
              | None -> assert false
            in
            float_of_int greedy /. float_of_int exact)
      in
      let mean_ratio = Peel_util.Stats.mean ratios in
      let max_ratio = List.fold_left Float.max 1.0 ratios in
      let optimal_rate =
        float_of_int (List.length (List.filter (fun r -> r <= 1.0) ratios))
        /. float_of_int trials
      in
      { failure_pct; trials; mean_ratio; max_ratio; optimal_rate })
    [ 0; 5; 10; 20 ]

type bandwidth = {
  ring_traversals : int;
  peel_traversals : int;
  savings_pct : float;
}

let compute_bandwidth () =
  let f = Common.fig5_fabric () in
  let g = Fabric.graph f in
  let eps = Fabric.endpoints f in
  let members = List.init 512 (fun i -> eps.(i)) in
  let source = List.hd members in
  let dests = List.tl members in
  let ring = Peel_baselines.Ring.schedule f ~source ~members in
  let ring_loads =
    Peel_baselines.Traffic.link_loads g ring.Peel_baselines.Ring.hops
  in
  let plan = Peel.Plan.build f ~source ~dests in
  let peel_loads = Array.make (Graph.num_links g) 0 in
  List.iter
    (fun packet ->
      match Peel.Plan.packet_tree f ~source packet with
      | None -> ()
      | Some tree ->
          List.iter
            (fun lid -> peel_loads.(lid) <- peel_loads.(lid) + 1)
            (Tree.link_ids tree))
    plan.Peel.Plan.packets;
  let ring_traversals = Peel_baselines.Traffic.total g ring_loads in
  let peel_traversals = Peel_baselines.Traffic.total g peel_loads in
  {
    ring_traversals;
    peel_traversals;
    savings_pct =
      100.0
      *. (1.0 -. (float_of_int peel_traversals /. float_of_int ring_traversals));
  }

let run mode =
  Common.note "greedy vs exact Steiner on random asymmetric leaf-spines (6 dests):";
  let rows = compute_cost mode in
  Peel_util.Table.print
    ~header:[ "failures"; "trials"; "mean cost ratio"; "max"; "greedy = optimal" ]
    (List.map
       (fun r ->
         [
           Printf.sprintf "%d%%" r.failure_pct;
           string_of_int r.trials;
           Printf.sprintf "%.3f" r.mean_ratio;
           Printf.sprintf "%.2f" r.max_ratio;
           Printf.sprintf "%.0f%%" (100.0 *. r.optimal_rate);
         ])
       rows);
  let bw = compute_bandwidth () in
  Common.note
    (Printf.sprintf
       "512-GPU Broadcast fabric traversals: ring %d, PEEL %d -> PEEL saves %.0f%% (paper: 23%%)"
       bw.ring_traversals bw.peel_traversals bw.savings_pct)
