open Peel_topology
open Peel_baselines

type row = {
  scheme : string;
  fabric_links : int;
  core_links : int;
  overshoot_pct : float;
}

let compute () =
  let f = Common.fig1_fabric () in
  let g = Fabric.graph f in
  let hosts = Array.to_list (Fabric.hosts f) in
  let source = List.hd hosts in
  let dests = List.tl hosts in
  let ring = Ring.schedule f ~source ~members:hosts in
  let tree = Binary_tree.schedule f ~source ~members:hosts in
  let opt = Peel_steiner.Symmetric.build f ~source ~dests in
  let measure name loads =
    (name, Traffic.total g loads, Traffic.core_load g loads)
  in
  let rows =
    [
      measure "ring" (Traffic.link_loads g ring.Ring.hops);
      measure "tree" (Traffic.link_loads g tree.Binary_tree.edges);
      measure "optimal" (Traffic.tree_loads g opt);
    ]
  in
  let opt_total =
    match List.rev rows with (_, t, _) :: _ -> t | [] -> assert false
  in
  List.map
    (fun (scheme, fabric_links, core_links) ->
      {
        scheme;
        fabric_links;
        core_links;
        overshoot_pct =
          100.0 *. Traffic.overshoot ~baseline:fabric_links ~optimal:opt_total;
      })
    rows

(* A cheap scheme comparison on the intro fabric, so BENCH.json carries
   headline CCT numbers even when no CCT experiment was selected. *)
let headline_json () =
  let fabric = Common.fig1_fabric () in
  let open Peel_collective in
  let module Json = Peel_util.Json in
  let module Stats = Peel_util.Stats in
  Json.Arr
    (List.map
       (fun scheme ->
         let cs =
           Peel_workload.Spec.poisson_broadcasts fabric (Peel_util.Rng.create 7)
             ~n:4 ~scale:8 ~bytes:(Common.mb 8.0) ~load:0.3 ()
         in
         let s = Runner.summarize (Runner.run fabric scheme cs) in
         Json.Obj
           [
             ("scheme", Json.str (Scheme.to_string scheme));
             ("mean", Json.num s.Stats.mean);
             ("p50", Json.num s.Stats.p50);
             ("p99", Json.num s.Stats.p99);
             ("max", Json.num s.Stats.max);
           ])
       Scheme.all)

let run _mode =
  Common.note "2 spines x 2 leaves x 4 hosts, broadcast from host 0";
  let rows = compute () in
  Peel_util.Table.print
    ~header:[ "scheme"; "fabric link traversals"; "core traversals"; "overshoot vs optimal" ]
    (List.map
       (fun r ->
         [
           r.scheme;
           string_of_int r.fabric_links;
           string_of_int r.core_links;
           Printf.sprintf "%+.0f%%" r.overshoot_pct;
         ])
       rows);
  Common.note "paper: rings/trees overshoot the optimum by 70-80% on core links"
