(* E21 (extension): the topology zoo under generalized layer-peeling.

   Three deterministic sections:
   - approximation: general peel vs the exact-Steiner oracle across
     topology class x failure rate x group size, plus a symmetric-Clos
     control row whose ratio must be exactly 1.0 at zero failures
     (Lemma 2.1);
   - port_set_rules: the per-switch distinct child-port-set counts a
     tree family needs on fabrics with no pod/ToR prefix structure —
     the degraded rule currency of the zoo;
   - reconfig: per-epoch link-set swaps (Zoo.Reconfig) on the two
     expander classes, re-peeled mid-run through the E16 failover
     machinery. *)

open Peel_topology
open Peel_steiner
open Peel_workload
open Peel_collective
module Rng = Peel_util.Rng
module Json = Peel_util.Json

type ratio_row = {
  cls : string;  (** topology class, or ["clos-control"] *)
  failure_pct : int;
  group : int;  (** destination count |D| *)
  trials : int;
  measured : int;  (** trials the oracle could afford *)
  mean_ratio : float;
  max_ratio : float;
  optimal_rate : float;  (** fraction of measured trials at ratio 1.0 *)
}

type rules_row = {
  r_cls : string;
  r_trees : int;
  r_switches : int;  (** switches holding at least one replication rule *)
  r_total_rules : int;
  r_max_rules : int;
}

type reconfig_row = {
  c_cls : string;
  c_epochs : int;
  c_swaps : int;  (** individual fail/recover events applied *)
  c_clean : float;
  c_reconf : float;
  c_degradation : float;
  c_replans : int;
}

(* Instances small enough that the pendant-collapsed Dreyfus–Wagner
   oracle can afford (almost) every draw. *)
let build cls ~seed =
  match cls with
  | Zoo.Abfattree -> Zoo.abfattree ~hosts_per_tor:2 ~k:4 ()
  | Zoo.Vl2 -> Zoo.vl2 ~da:4 ~di:4 ()
  | Zoo.Jellyfish -> Zoo.jellyfish ~switches:12 ~net_degree:3 ~seed ()
  | Zoo.Xpander -> Zoo.xpander ~net_degree:3 ~lift:4 ~seed ()

let fabric_for target ~seed =
  match target with
  | `Clos -> Fabric.fat_tree ~hosts_per_tor:2 ~gpus_per_host:0 ~k:4 ()
  | `Zoo cls -> Fabric.of_zoo (build cls ~seed)

let target_name = function
  | `Clos -> "clos-control"
  | `Zoo cls -> Zoo.cls_to_string cls

let all_targets = `Clos :: List.map (fun c -> `Zoo c) Zoo.all_classes

let ratio_cell ~trials target ~failure_pct ~group =
  let ratios = ref [] in
  let measured = ref 0 in
  for t = 0 to trials - 1 do
    let seed = 21000 + (1000 * failure_pct) + (100 * group) + t in
    let f = fabric_for target ~seed in
    let g = Fabric.graph f in
    let rng = Rng.create seed in
    if failure_pct > 0 then
      ignore
        (Fabric.fail_random f ~rng ~tier:`All
           ~fraction:(float_of_int failure_pct /. 100.0)
           ());
    let hosts = Fabric.hosts f in
    let n = Array.length hosts in
    let picks = Rng.sample_without_replacement rng n (min n (group + 1)) in
    match List.map (fun i -> hosts.(i)) picks with
    | [] | [ _ ] -> ()
    | source :: dests -> (
        match Layer_peel.peel_general g ~source ~dests with
        | None -> () (* the failure draw cut a destination off *)
        | Some tree -> (
            match Exact.oracle g ~source ~dests with
            | None -> () (* instance too large for the DP; skipped *)
            | Some opt ->
                incr measured;
                ratios :=
                  (float_of_int (Tree.cost tree) /. float_of_int (max 1 opt))
                  :: !ratios))
  done;
  let rs = !ratios in
  {
    cls = target_name target;
    failure_pct;
    group;
    trials;
    measured = !measured;
    mean_ratio = (if rs = [] then 0.0 else Peel_util.Stats.mean rs);
    max_ratio = List.fold_left Float.max (if rs = [] then 0.0 else 1.0) rs;
    optimal_rate =
      (if !measured = 0 then 0.0
       else
         float_of_int (List.length (List.filter (fun r -> r <= 1.0) rs))
         /. float_of_int !measured);
  }

let ratio_rows mode =
  let trials = Common.trials mode ~full:40 in
  let cells =
    List.concat_map
      (fun target ->
        List.concat_map
          (fun failure_pct ->
            List.map (fun group -> (target, failure_pct, group)) [ 4; 8 ])
          [ 0; 5; 10 ])
      all_targets
  in
  Common.par_trials
    (fun (target, failure_pct, group) ->
      ratio_cell ~trials target ~failure_pct ~group)
    cells

(* Eight salted trees per class from distinct sources: how many
   distinct replication port sets each switch must hold. *)
let rules_rows () =
  List.map
    (fun cls ->
      let z = build cls ~seed:31 in
      let f = Fabric.of_zoo z in
      let g = Fabric.graph f in
      let hosts = Fabric.hosts f in
      let n = Array.length hosts in
      let rng = Rng.create 3100 in
      let trees =
        List.init 8 (fun gid ->
            let picks = Rng.sample_without_replacement rng n (min n 7) in
            match List.map (fun i -> hosts.(i)) picks with
            | source :: (_ :: _ as dests) ->
                Layer_peel.peel_general ~salt:gid g ~source ~dests
            | _ -> None)
        |> List.filter_map Fun.id
      in
      let per_switch = Layer_peel.port_set_rules g trees in
      {
        r_cls = Zoo.cls_to_string cls;
        r_trees = List.length trees;
        r_switches = List.length per_switch;
        r_total_rules = List.fold_left (fun a (_, c) -> a + c) 0 per_switch;
        r_max_rules = List.fold_left (fun a (_, c) -> max a c) 0 per_switch;
      })
    Zoo.all_classes

let reconfig_row cls =
  let z = build cls ~seed:57 in
  let f = Fabric.of_zoo z in
  let spec = Spec.single f (Rng.create 5700) ~scale:8 ~bytes:(Common.mb 4.0) in
  let clean = List.hd (Failover.run f Failover.Peel [ spec ]).Runner.ccts in
  let epochs = 3 in
  let period = 0.25 *. clean in
  let sched =
    Zoo.Reconfig.schedule z ~rng:(Rng.create 5701) ~epochs ~period
      ~fraction:0.15
  in
  (* Epoch [e]'s deltas land at [(e+1) * period]: the run starts on the
     undarkened fabric and rides three link-set swaps before finishing. *)
  let events =
    List.concat_map
      (fun (e : Zoo.Reconfig.epoch) ->
        let at = e.Zoo.Reconfig.at +. period in
        List.map
          (fun id -> { Peel_sim.Fault.at; duplex = id; action = Peel_sim.Fault.Fail })
          e.Zoo.Reconfig.fail
        @ List.map
            (fun id ->
              { Peel_sim.Fault.at; duplex = id; action = Peel_sim.Fault.Recover })
            e.Zoo.Reconfig.recover)
      sched
  in
  let swaps = List.length events in
  let faults = Peel_sim.Fault.of_list events in
  let trace = Peel_sim.Trace.create ~level:Counters () in
  let out = Failover.run ~trace ~faults f Failover.Peel [ spec ] in
  let reconf = List.hd out.Runner.ccts in
  let c = Peel_sim.Trace.counters trace in
  {
    c_cls = Zoo.cls_to_string cls;
    c_epochs = epochs;
    c_swaps = swaps;
    c_clean = clean;
    c_reconf = reconf;
    c_degradation = reconf /. clean;
    c_replans = c.Peel_sim.Trace.replans;
  }

let reconfig_rows () = List.map reconfig_row [ Zoo.Jellyfish; Zoo.Xpander ]

let rows_json mode =
  let ratio = ratio_rows mode in
  let rules = rules_rows () in
  let reconf = reconfig_rows () in
  Json.Obj
    [
      ( "approximation",
        Json.Arr
          (List.map
             (fun r ->
               Json.Obj
                 [
                   ("class", Json.str r.cls);
                   ("failure_pct", Json.int r.failure_pct);
                   ("group", Json.int r.group);
                   ("trials", Json.int r.trials);
                   ("measured", Json.int r.measured);
                   ("mean_ratio", Json.num r.mean_ratio);
                   ("max_ratio", Json.num r.max_ratio);
                   ("optimal_rate", Json.num r.optimal_rate);
                 ])
             ratio) );
      ( "port_set_rules",
        Json.Arr
          (List.map
             (fun r ->
               Json.Obj
                 [
                   ("class", Json.str r.r_cls);
                   ("trees", Json.int r.r_trees);
                   ("switches", Json.int r.r_switches);
                   ("total_rules", Json.int r.r_total_rules);
                   ("max_rules", Json.int r.r_max_rules);
                 ])
             rules) );
      ( "reconfig",
        Json.Arr
          (List.map
             (fun r ->
               Json.Obj
                 [
                   ("class", Json.str r.c_cls);
                   ("epochs", Json.int r.c_epochs);
                   ("swap_events", Json.int r.c_swaps);
                   ("clean_cct_s", Json.num r.c_clean);
                   ("reconf_cct_s", Json.num r.c_reconf);
                   ("degradation", Json.num r.c_degradation);
                   ("replans", Json.int r.c_replans);
                 ])
             reconf) );
    ]

let run mode =
  Common.note
    "general layer-peeling on abfattree / VL2 / Jellyfish / Xpander; measured \
     approximation ratio against pendant-collapsed Dreyfus-Wagner";
  let rs = ratio_rows mode in
  Peel_util.Table.print
    ~header:
      [ "class"; "failures"; "|D|"; "measured"; "mean ratio"; "max";
        "greedy = optimal" ]
    (List.map
       (fun r ->
         [
           r.cls;
           Printf.sprintf "%d%%" r.failure_pct;
           string_of_int r.group;
           Printf.sprintf "%d/%d" r.measured r.trials;
           Printf.sprintf "%.3f" r.mean_ratio;
           Printf.sprintf "%.2f" r.max_ratio;
           Printf.sprintf "%.0f%%" (100.0 *. r.optimal_rate);
         ])
       rs);
  Common.note
    "per-switch port-set rules for 8 salted trees (no pod prefixes to \
     compress into):";
  Peel_util.Table.print
    ~header:[ "class"; "trees"; "switches"; "total rules"; "max/switch" ]
    (List.map
       (fun r ->
         [
           r.r_cls;
           string_of_int r.r_trees;
           string_of_int r.r_switches;
           string_of_int r.r_total_rules;
           string_of_int r.r_max_rules;
         ])
       (rules_rows ()));
  Common.note "per-epoch link-set swaps on the expanders, re-peeled mid-run:";
  Peel_util.Table.print
    ~header:
      [ "class"; "epochs"; "swap events"; "clean CCT"; "reconf CCT";
        "degradation"; "replans" ]
    (List.map
       (fun r ->
         [
           r.c_cls;
           string_of_int r.c_epochs;
           string_of_int r.c_swaps;
           Common.fsec r.c_clean;
           Common.fsec r.c_reconf;
           Common.f2 r.c_degradation ^ "x";
           string_of_int r.c_replans;
         ])
       (reconfig_rows ()));
  Common.note
    "clos-control at 0% failures must read 1.000 (Lemma 2.1: peel is exact \
     on the symmetric Clos)"
