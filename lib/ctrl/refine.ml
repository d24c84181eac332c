open Peel_topology
open Peel_sim
open Peel_workload
open Peel_collective
module Plan = Peel.Plan

type scheme = Peel_static | Peel_refined | Ipmc

let all_schemes = [ Peel_static; Peel_refined; Ipmc ]

let scheme_to_string = function
  | Peel_static -> "peel-static"
  | Peel_refined -> "peel-refined"
  | Ipmc -> "ipmc"

let scheme_of_string = function
  | "peel-static" | "static" -> Some Peel_static
  | "peel-refined" | "refined" -> Some Peel_refined
  | "ipmc" -> Some Ipmc
  | _ -> None

let nic_rate = 12.5e9

type report = {
  r_gid : int;
  r_ndests : int;
  r_chunks : int;
  mutable r_static_chunks : int;
  mutable r_refined_chunks : int;
  mutable r_deliveries : int;
  mutable r_overcover_bytes : float;
}

type outcome = {
  run : Runner.outcome;
  reports : report list;
  controller : Controller.t;
  handoffs : Check_ctrl.handoff list;
  fingerprint : string;
}

(* Which switches hold the group's exact entries: the refined tree's
   interior (core/agg/spine) switches; classic IPMC also burns an
   entry per ToR on the tree (the E14 accounting). *)
let entry_switches g tree ~include_tors =
  Peel_steiner.Tree.switch_members g tree
  |> List.filter (fun v ->
         include_tors || (Graph.node g v).Graph.kind <> Graph.Tor)
  |> List.map (fun v ->
         (v, max 1 (List.length (Peel_steiner.Tree.children tree v))))

let launch_group controller scheme engine links fabric cfg
    ~(spec : Spec.collective) ~(group : Spec.group) ~(report : report)
    ~on_complete =
  let g = Fabric.graph fabric in
  let source = spec.Spec.source in
  let dests =
    List.sort_uniq compare (List.filter (fun d -> d <> source) spec.Spec.dests)
  in
  let trace = cfg.Broadcast.trace in
  let flow = spec.Spec.id in
  let chunks = cfg.Broadcast.chunks in
  let chunk_bytes = spec.Spec.bytes /. float_of_int chunks in
  (* Stage one: the budgeted prefix plan.  Its packet trees span the
     over-covered racks too — wasted replication is real link load. *)
  let plan =
    Peel.Plan.build ?budget:(Controller.budget controller) fabric ~source ~dests
  in
  let static_trees =
    List.filter_map
      (fun (p : Plan.packet) ->
        match Plan.packet_tree fabric ~source p with
        | Some t -> Some (t, List.length p.Plan.waste_tors)
        | None -> None)
      plan.Plan.packets
  in
  let waste_racks =
    List.fold_left (fun acc (_, w) -> acc + w) 0 static_trees
  in
  (* Stage two: the exact per-group tree. *)
  let refined_tree =
    match Peel.multicast_tree fabric ~source ~dests with
    | Some t -> t
    | None -> failwith "Refine: destinations unreachable"
  in
  if Peel_check.enabled () then
    Peel_check.assert_valid ~what:"refined group cover"
      (Check_ctrl.check_refined_cover fabric ~group:flow
         ~members:spec.Spec.members ~tree:(Some refined_tree));
  let switches = entry_switches g refined_tree ~include_tors:(scheme = Ipmc) in
  (match scheme with
  | Peel_static -> ()
  | Peel_refined | Ipmc ->
      Controller.admit controller engine ~gid:flow ~at:spec.Spec.arrival
        ~switches
        ~cost:(Peel_steiner.Tree.cost refined_tree);
      Engine.schedule engine group.Spec.g_departure (fun () ->
          Controller.release controller ~gid:flow));
  let ndests = List.length dests in
  let delivered = Hashtbl.create 64 in
  let remaining = ref (chunks * ndests) in
  let last = ref spec.Spec.arrival in
  let deliver node chunk time =
    if not (Hashtbl.mem delivered (node, chunk)) then begin
      Hashtbl.replace delivered (node, chunk) ();
      Trace.delivery trace ~time ~node ~flow ~chunk;
      report.r_deliveries <- report.r_deliveries + 1;
      decr remaining;
      if time > !last then last := time;
      if !remaining = 0 then on_complete (!last -. spec.Spec.arrival)
    end
  in
  let static_route = Par.of_trees ~dests (List.map fst static_trees)
  and refined_route = Par.of_trees ~dests [ refined_tree ] in
  let send (r : Par.route) chunk t =
    Transfer.dag engine links r.Par.dag ~trees:r.Par.trees ~bytes:chunk_bytes
      ~start:t
      ~on_delivered:(fun ~node ~time -> deliver node chunk time)
      ()
  in
  let start =
    match scheme with
    | Peel_static | Peel_refined -> spec.Spec.arrival
    | Ipmc ->
        (* No prefix fallback to launch on: IPMC pays the install
           latency up front, on every group. *)
        spec.Spec.arrival
        +. Controller.install_latency controller
             ~nrules:(List.length switches)
  in
  (* Chunks leave back to back; the NIC serializes one copy per tree,
     so the static stage's extra packets stretch the send window. *)
  let rec release c t =
    if c < chunks then
      Engine.schedule engine t (fun () ->
          let refined =
            match scheme with
            | Peel_static -> false
            | Ipmc -> true
            | Peel_refined ->
                Controller.stage controller ~gid:flow = Controller.Refined
          in
          Trace.release trace ~time:t ~flow ~chunk:c ~rate:nic_rate;
          let copies =
            if refined then begin
              report.r_refined_chunks <- report.r_refined_chunks + 1;
              Controller.touch controller ~now:t ~gid:flow ~bytes:chunk_bytes;
              send refined_route c t;
              1
            end
            else begin
              report.r_static_chunks <- report.r_static_chunks + 1;
              report.r_overcover_bytes <-
                report.r_overcover_bytes
                +. (chunk_bytes *. float_of_int waste_racks);
              send static_route c t;
              max 1 (List.length static_trees)
            end
          in
          release (c + 1)
            (t +. (float_of_int copies *. chunk_bytes /. nic_rate)))
  in
  release 0 start

let run ?(chunks = 8) ?(cfg = Controller.default_config) ?(trace = Trace.null)
    fabric scheme groups =
  (* Classic IPMC keeps per-group state on every on-tree switch with no
     architectural bound — E14 is the experiment that prices that.  Give
     it an effectively unbounded table so no eviction masks the CCT
     comparison. *)
  let ctl_cfg =
    match scheme with
    | Ipmc -> { cfg with Controller.capacity = max_int }
    | Peel_static | Peel_refined -> cfg
  in
  let controller = Controller.create ~trace ctl_cfg in
  let by_id = Hashtbl.create 16 in
  List.iter (fun (gr : Spec.group) -> Hashtbl.replace by_id gr.Spec.g_id gr)
    groups;
  let reports = ref [] in
  let collectives = List.map Spec.collective_of_group groups in
  let out =
    Runner.run_custom ~chunks ~trace fabric
      ~launch:(fun engine links _paths cfg' ~spec ~on_complete ->
        if spec.Spec.dests = [] then
          Engine.schedule engine spec.Spec.arrival (fun () -> on_complete 0.0)
        else begin
          let group = Hashtbl.find by_id spec.Spec.id in
          let ndests =
            List.length
              (List.sort_uniq compare
                 (List.filter (fun d -> d <> spec.Spec.source) spec.Spec.dests))
          in
          let report =
            {
              r_gid = spec.Spec.id;
              r_ndests = ndests;
              r_chunks = chunks;
              r_static_chunks = 0;
              r_refined_chunks = 0;
              r_deliveries = 0;
              r_overcover_bytes = 0.0;
            }
          in
          reports := report :: !reports;
          launch_group controller scheme engine links fabric cfg' ~spec ~group
            ~report ~on_complete
        end)
      collectives
  in
  let reports =
    List.sort (fun a b -> compare a.r_gid b.r_gid) (List.rev !reports)
  in
  let handoffs =
    List.map
      (fun r ->
        {
          Check_ctrl.h_gid = r.r_gid;
          h_ndests = r.r_ndests;
          h_chunks = r.r_chunks;
          h_static = r.r_static_chunks;
          h_refined = r.r_refined_chunks;
          h_deliveries = r.r_deliveries;
        })
      reports
  in
  let fingerprint = Check_ctrl.fingerprint out ~handoffs ~controller in
  if Peel_check.enabled () then begin
    Peel_check.assert_valid ~what:"control-plane handoff"
      (Check_ctrl.check_handoff handoffs);
    (match Controller.tcam controller with
    | Some tc ->
        Peel_check.assert_valid ~what:"TCAM budget"
          (Check_ctrl.check_budget tc)
    | None -> ());
    if Trace.level trace = Trace.Full then
      Peel_check.assert_valid ~what:"control-plane trace"
        (Check_ctrl.check_trace trace)
  end;
  { run = out; reports; controller; handoffs; fingerprint }

let total_overcover_bytes o =
  List.fold_left (fun acc r -> acc +. r.r_overcover_bytes) 0.0 o.reports

let static_chunks o =
  List.fold_left (fun acc r -> acc + r.r_static_chunks) 0 o.reports

let refined_chunks o =
  List.fold_left (fun acc r -> acc + r.r_refined_chunks) 0 o.reports
