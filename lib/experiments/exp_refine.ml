open Peel_topology
open Peel_workload
open Peel_ctrl
module Rng = Peel_util.Rng
module Json = Peel_util.Json
module Trace = Peel_sim.Trace

type row = {
  scheme : string;
  rpc : float;       (* nan = not applicable (static never installs) *)
  capacity : int;    (* 0 = not applicable *)
  mean_cct : float;
  total_bytes : float;  (** all link-bytes reserved *)
  overcover_bytes : float;  (** bytes landed on memberless racks *)
  installs : int;
  evictions : int;
  refined_frac : float;  (** chunks released on exact rules *)
}

let chunks = 16
let per_rule = 20e-6

let fabric () =
  Fabric.leaf_spine ~spines:4 ~leaves:8 ~hosts_per_leaf:2 ~gpus_per_host:2 ()

(* Fragmented 8-GPU groups over 64 MB messages: the budget-1 prefix
   cover over-covers scattered racks, and the ~5 ms send window leaves
   room for installs to land mid-run. *)
let groups_for fabric mode =
  let n = match mode with Common.Quick -> 6 | Common.Full -> 10 in
  Spec.poisson_groups fabric (Rng.create 1700) ~n ~scale:8
    ~bytes:(Common.mb 64.0) ~load:0.5 ~hold:0.05 ~fragmentation:0.6 ()

let sweep mode =
  match mode with
  | Common.Quick -> ([ 0.2e-3; 2e-3 ], [ 1; 8 ])
  | Common.Full -> ([ 0.2e-3; 1e-3; 4e-3 ], [ 1; 2; 8 ])

let run_one fabric groups scheme cfg =
  let trace = Trace.create ~level:Counters () in
  let out = Refine.run ~chunks ~cfg ~trace fabric scheme groups in
  let c = Trace.counters trace in
  let total =
    Refine.static_chunks out + Refine.refined_chunks out
  in
  {
    scheme = Refine.scheme_to_string scheme;
    rpc = cfg.Controller.rpc;
    capacity = cfg.Controller.capacity;
    mean_cct = Peel_util.Stats.mean out.Refine.run.Peel_collective.Runner.ccts;
    total_bytes = c.Trace.bytes_reserved;
    overcover_bytes = Refine.total_overcover_bytes out;
    installs = Controller.installs out.Refine.controller;
    evictions = Controller.evictions out.Refine.controller;
    refined_frac =
      (if total = 0 then 0.0
       else float_of_int (Refine.refined_chunks out) /. float_of_int total);
  }

let rows mode =
  let fabric = fabric () in
  let groups = groups_for fabric mode in
  let rpcs, capacities = sweep mode in
  let cfg_for rpc capacity =
    { Controller.default_config with Controller.rpc; per_rule; capacity }
  in
  (* Scheme-config cell descriptors, in output order; [Refine.run]
     builds all controller/simulator state per call, so cells share only
     the fabric and the immutable group specs. *)
  let cells =
    (`Static
      :: List.concat_map
           (fun rpc -> List.map (fun cap -> `Refined (rpc, cap)) capacities)
           rpcs)
    @ List.map (fun rpc -> `Ipmc rpc) rpcs
  in
  Common.par_trials
    (fun cell ->
      match cell with
      | `Static ->
          let r = run_one fabric groups Refine.Peel_static (cfg_for 0.0 1) in
          { r with rpc = nan; capacity = 0 }
      | `Refined (rpc, capacity) ->
          run_one fabric groups Refine.Peel_refined (cfg_for rpc capacity)
      | `Ipmc rpc ->
          let r = run_one fabric groups Refine.Ipmc (cfg_for rpc 1) in
          { r with capacity = 0 })
    cells

let rows_json mode =
  Json.Arr
    (List.map
       (fun r ->
         Json.Obj
           [
             ("scheme", Json.str r.scheme);
             ("rpc_s", if Float.is_nan r.rpc then Json.Null else Json.num r.rpc);
             ( "tcam_capacity",
               if r.capacity = 0 then Json.Null else Json.int r.capacity );
             ("mean_cct_s", Json.num r.mean_cct);
             ("total_link_bytes", Json.num r.total_bytes);
             ("overcover_bytes", Json.num r.overcover_bytes);
             ("rule_installs", Json.int r.installs);
             ("evictions", Json.int r.evictions);
             ("refined_frac", Json.num r.refined_frac);
           ])
       (rows mode))

let fna x = if Float.is_nan x then "-" else Common.fsec x

let run mode =
  Common.note
    "32-GPU leaf-spine; fragmented 8-GPU groups, 64 MB messages, budget-1 \
     prefix covers (maximal over-cover); 20 us/rule install time";
  let rs = rows mode in
  Peel_util.Table.print
    ~header:
      [ "scheme"; "rpc"; "tcam"; "mean CCT"; "link GB"; "waste GB";
        "installs"; "evicts"; "refined%" ]
    (List.map
       (fun r ->
         [
           r.scheme;
           fna r.rpc;
           (if r.capacity = 0 then "-" else string_of_int r.capacity);
           Common.fsec r.mean_cct;
           Printf.sprintf "%.2f" (r.total_bytes /. 1e9);
           Printf.sprintf "%.2f" (r.overcover_bytes /. 1e9);
           string_of_int r.installs;
           string_of_int r.evictions;
           Printf.sprintf "%.0f%%" (100.0 *. r.refined_frac);
         ])
       rs);
  Common.note
    "refined PEEL sheds the static stage's over-cover bytes once installs \
     land (gap shrinks as rpc grows); IPMC avoids all waste but stalls \
     every group on the install path and holds per-group state on every \
     on-tree switch"
