(* Quickstart: build a fabric, plan a multicast, inspect what PEEL
   installs and sends.

   Run with:  dune exec examples/quickstart.exe *)

let () =
  (* An 8-ary fat-tree with 4 servers per rack and 8 GPUs per server —
     the paper's evaluation fabric (1024 GPUs). *)
  let fabric = Peel.Fabric.fat_tree ~k:8 ~hosts_per_tor:4 ~gpus_per_host:8 () in
  Printf.printf "fabric: %s\n" (Peel.Fabric.describe fabric);

  (* A training job bin-packed onto GPUs 256..383 (one pod). *)
  let gpus = Peel.Fabric.endpoints fabric in
  let members = List.init 128 (fun i -> gpus.(256 + i)) in
  let source = List.hd members in
  let dests = List.tl members in

  (* 1. The multicast tree (optimal here: the fabric is healthy). *)
  (match Peel.multicast_tree fabric ~source ~dests with
  | None -> failwith "destinations unreachable"
  | Some tree ->
      Printf.printf "multicast tree: %d links, depth %d (vs %d unicast sends)\n"
        (Peel.Tree.cost tree) (Peel.Tree.max_depth tree) (List.length dests));

  (* 2. The prefix plan: what the source actually emits. *)
  let plan = Peel.Plan.build fabric ~source ~dests in
  Printf.printf "send plan: %d packet(s), %d B header each\n"
    (Peel.Plan.num_packets plan) plan.Peel.Plan.header_bytes;
  List.iter
    (fun p ->
      let pod_str =
        match p.Peel.Plan.pod_prefix with
        | Some pp -> Printf.sprintf "pods %s" (Peel.Cover.to_string ~m:3 pp)
        | None -> "single pod"
      in
      Printf.printf "  packet -> %s, racks %s (%d endpoints)\n" pod_str
        (Peel.Cover.to_string ~m:2 p.Peel.Plan.tor_prefix)
        (List.length p.Peel.Plan.endpoints))
    plan.Peel.Plan.packets;

  (* 3. The static switch state making that work: k-1 rules, installed
     once, never touched again. *)
  Printf.printf "static TCAM rules per aggregation switch: %d\n"
    (Peel.switch_rules fabric);
  List.iter
    (fun r ->
      Printf.printf "  match %s -> %d port(s)\n"
        (Peel.Cover.to_string ~m:2 r.Peel.Rules.prefix)
        (List.length r.Peel.Rules.ports))
    (Peel.Rules.rules (Peel.state_table fabric))
