open Peel_topology

type mode = Quick | Full

let trials mode ~full =
  match mode with Full -> full | Quick -> max 4 (full / 8)

let par_trials f cells = Peel_util.Pool.par_map f cells

let fig5_fabric () = Fabric.fat_tree ~k:8 ~hosts_per_tor:4 ~gpus_per_host:8 ()

let fig7_fabric () =
  Fabric.leaf_spine ~spines:16 ~leaves:48 ~hosts_per_leaf:2 ~gpus_per_host:8 ()

let fig1_fabric () = Fabric.leaf_spine ~spines:2 ~leaves:2 ~hosts_per_leaf:4 ()

let mb x = x *. 1e6

let banner title =
  Printf.printf "\n==== %s ====\n%!" title

let note s = Printf.printf "  %s\n%!" s

let summarize_run ?cc ?controller fabric scheme collectives =
  (* Debug-mode assertions (PEEL_CHECK=1): lint the fabric and the
     first collective's whole scenario (tree, plan, rules, schedules)
     before burning simulation time on a malformed input. *)
  if Peel_check.enabled () then begin
    Peel_check.assert_valid ~what:"experiment fabric"
      (Peel_check.Check_sim.check_fabric fabric);
    match collectives with
    | [] -> ()
    | (c : Peel_workload.Spec.collective) :: _ ->
        Peel_check.assert_valid ~what:"experiment scenario"
          (Peel_check.check_scenario fabric ~source:c.Peel_workload.Spec.source
             ~dests:c.Peel_workload.Spec.dests)
  end;
  Peel_collective.Runner.summarize
    (Peel_collective.Runner.run ?cc ?controller fabric scheme collectives)

let fsec = Peel_util.Table.fsec
let f2 x = Printf.sprintf "%.2f" x

let micro_table_rows results =
  List.map
    (fun (name, ns, r2) ->
      [
        name;
        (match ns with
        | Some ns when Float.is_finite ns -> Peel_util.Table.fsec (ns /. 1e9)
        | _ -> "n/a");
        (match r2 with
        | Some r2 when Float.is_finite r2 ->
            Printf.sprintf "%.3f%s" r2
              (if r2 < 0.9 then " low" else "")
        | _ -> "n/a");
      ])
    results
