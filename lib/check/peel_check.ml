module Diagnostic = Diagnostic
module Check_tree = Check_tree
module Check_plan = Check_plan
module Check_sim = Check_sim
module Check_collective = Check_collective
module Check_topology = Check_topology
module Fabric = Peel_topology.Fabric

let env_var = "PEEL_CHECK"

let enabled () =
  match Sys.getenv_opt env_var with
  | Some ("1" | "true" | "yes" | "on") -> true
  | _ -> false

let assert_valid ~what ds =
  match Diagnostic.errors ds with
  | [] -> ()
  | errs ->
      failwith
        (Printf.sprintf "Peel_check: %s failed %d invariant check(s):\n%s" what
           (List.length errs)
           (String.concat "\n" (List.map Diagnostic.to_string errs)))

let check_scenario ?budget fabric ~source ~dests =
  let dests = List.sort_uniq compare (List.filter (fun d -> d <> source) dests) in
  let g = Fabric.graph fabric in
  let fabric_ds = Check_sim.check_fabric fabric in
  let tree_ds =
    match Peel.multicast_tree fabric ~source ~dests with
    | None ->
        [
          Diagnostic.errorf ~code:"TREE003" ~loc:"tree"
            "no multicast tree: some destination is unreachable";
        ]
    | Some tree -> Check_tree.check ~fabric g tree ~source ~dests
  in
  let plan_ds =
    Check_plan.check fabric (Peel.Plan.build ?budget fabric ~source ~dests)
  in
  let rules_ds = Check_plan.check_rules fabric (Peel.state_table fabric) in
  let members = List.sort_uniq compare (source :: dests) in
  let sched_ds =
    if List.length members < 2 then []
    else
      Check_collective.check_ring
        (Peel_baselines.Ring.schedule fabric ~source ~members)
        ~source ~members
      @ Check_collective.check_btree
          (Peel_baselines.Binary_tree.schedule fabric ~source ~members)
          ~source ~members
  in
  let topo_ds =
    match fabric with
    | Fabric.Zo z -> Check_topology.check_scenario z ~source ~dests
    | Fabric.Ft _ | Fabric.Ls _ | Fabric.Rl _ -> []
  in
  Diagnostic.sort (fabric_ds @ tree_ds @ plan_ds @ rules_ds @ sched_ds @ topo_ds)
