open Peel_topology
open Peel_workload
module Rng = Peel_util.Rng

type row = {
  groups : int;
  ipmc_max_entries : int;
  peel_entries : int;
  overflows_4k : bool;
}

let tcam_capacity = 4096

let compute mode =
  let fabric = Common.fig5_fabric () in
  let g = Fabric.graph fabric in
  let peel_entries = Peel.switch_rules fabric in
  let group_sizes = [ 16; 32; 64; 128; 256 ] in
  let add_group rng counts =
    let scale = List.nth group_sizes (Rng.int rng (List.length group_sizes)) in
    let members = Spec.place fabric rng ~scale () in
    let source = List.hd members in
    let dests = List.tl members in
    match Peel.multicast_tree fabric ~source ~dests with
    | None -> ()
    | Some tree ->
        (* Naive IP multicast: one TCAM entry per group on every switch
           the group's tree traverses. *)
        List.iter
          (fun v -> counts.(v) <- counts.(v) + 1)
          (Peel_steiner.Tree.switch_members g tree)
  in
  let max_groups = match mode with Common.Full -> 10000 | Common.Quick -> 1000 in
  let checkpoints =
    List.filter (fun c -> c <= max_groups) [ 1; 10; 100; 1000; 10000 ]
  in
  (* Each checkpoint cell replays groups 1..checkpoint from the same
     seed: the rng stream prefix is shared, so every cell installs
     exactly the groups the cumulative sequential walk had installed —
     at the cost of redoing the (cheap) earlier installs per cell. *)
  Common.par_trials
    (fun groups ->
      let counts = Array.make (Graph.num_nodes g) 0 in
      let rng = Rng.create 1400 in
      for _ = 1 to groups do
        add_group rng counts
      done;
      let ipmc_max_entries = Array.fold_left max 0 counts in
      {
        groups;
        ipmc_max_entries;
        peel_entries;
        overflows_4k = ipmc_max_entries > tcam_capacity;
      })
    checkpoints

let run mode =
  Common.note "bin-packed jobs of 16-256 GPUs on the Fig. 5 fat-tree; 4K-entry TCAM";
  let rows = compute mode in
  Peel_util.Table.print
    ~header:
      [ "concurrent groups"; "IPMC entries (busiest switch)"; "PEEL entries";
        "IPMC overflows 4K TCAM" ]
    (List.map
       (fun r ->
         [
           string_of_int r.groups;
           string_of_int r.ipmc_max_entries;
           string_of_int r.peel_entries;
           (if r.overflows_4k then "yes" else "no");
         ])
       rows);
  Common.note "PEEL's state is deploy-once: independent of the number of groups"
