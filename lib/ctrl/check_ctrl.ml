open Peel_topology
module D = Peel_check.Diagnostic
module T = Peel_sim.Trace

let check_refined_cover ?(code = "CTRL001") ?(what = "refined tree") fabric
    ~group ~members ~tree =
  let ds = ref [] in
  let add d = ds := d :: !ds in
  let loc = Printf.sprintf "group %d" group in
  let racks =
    List.sort_uniq compare
      (List.map (Fabric.attach_tor fabric) members)
  in
  let entry = Peel.Dataplane.exact_entry fabric ~group ~members in
  (match Peel.Dataplane.verify_exact fabric entry ~members with
  | Ok () -> ()
  | Error msg -> add (D.errorf ~code ~loc "%s" msg));
  (match tree with
  | None -> ()
  | Some t ->
      let g = Fabric.graph fabric in
      let tors =
        List.filter
          (fun v -> (Graph.node g v).Graph.kind = Graph.Tor)
          (Peel_steiner.Tree.members t)
      in
      List.iter
        (fun tor ->
          if not (List.mem tor racks) then
            add
              (D.errorf ~code ~loc "%s touches rack %d, which houses no member"
                 what tor))
        tors;
      List.iter
        (fun rack ->
          if not (List.mem rack tors) then
            add (D.errorf ~code ~loc "%s misses member rack %d" what rack))
        racks);
  List.rev !ds

let check_budget ?(code = "CTRL002") tcam =
  let cap = Tcam.capacity tcam in
  let ds =
    List.filter_map
      (fun (sw, used) ->
        if used > cap then
          Some
            (D.errorf ~code
               ~loc:(Printf.sprintf "switch %d" sw)
               "%d entries exceed the TCAM budget of %d" used cap)
        else None)
      (Tcam.occupancy tcam)
  in
  if Tcam.max_used tcam > cap then
    ds
    @ [
        D.errorf ~code ~loc:"tcam"
          "high-water occupancy %d exceeded the budget of %d"
          (Tcam.max_used tcam) cap;
      ]
  else ds

type handoff = {
  h_gid : int;
  h_ndests : int;
  h_chunks : int;
  h_static : int;
  h_refined : int;
  h_deliveries : int;
}

let check_handoff handoffs =
  List.concat_map
    (fun h ->
      let loc = Printf.sprintf "group %d" h.h_gid in
      let ds = ref [] in
      let add d = ds := d :: !ds in
      if h.h_static + h.h_refined <> h.h_chunks then
        add
          (D.errorf ~code:"CTRL003" ~loc
             "%d static + %d refined chunks <> %d released: the stage \
              switch lost or duplicated a chunk"
             h.h_static h.h_refined h.h_chunks);
      if h.h_deliveries <> h.h_chunks * h.h_ndests then
        add
          (D.errorf ~code:"CTRL003" ~loc
             "%d deliveries, conservation needs %d (%d chunks x %d \
              destinations)"
             h.h_deliveries (h.h_chunks * h.h_ndests) h.h_chunks h.h_ndests);
      List.rev !ds)
    handoffs

(* A behavioural digest of one run: CCTs, wire totals and control-plane
   activity.  Two runs with the same seed and group schedule must
   produce byte-identical digests (CTRL004). *)
let fingerprint (out : Peel_collective.Runner.outcome) ~handoffs ~controller =
  let b = Buffer.create 256 in
  let c = T.counters out.Peel_collective.Runner.trace in
  List.iter
    (fun cct -> Buffer.add_string b (Printf.sprintf "cct=%.17g;" cct))
    out.Peel_collective.Runner.ccts;
  Buffer.add_string b
    (Printf.sprintf "makespan=%.17g;bytes=%.17g;deliveries=%d;releases=%d;"
       out.Peel_collective.Runner.makespan c.T.bytes_reserved c.T.deliveries
       c.T.releases);
  Buffer.add_string b
    (Printf.sprintf "rule_installs=%d;refines=%d;evictions=%d;"
       c.T.rule_installs c.T.refines c.T.evictions);
  Buffer.add_string b
    (Printf.sprintf "ctl_installs=%d;ctl_evictions=%d;"
       (Controller.installs controller)
       (Controller.evictions controller));
  List.iter
    (fun h ->
      Buffer.add_string b
        (Printf.sprintf "g%d=%d/%d/%d/%d;" h.h_gid h.h_static h.h_refined
           h.h_chunks h.h_deliveries))
    handoffs;
  Buffer.contents b

let check_replay ~first ~second =
  if String.equal first second then []
  else
    [
      D.errorf ~code:"CTRL004" ~loc:"replay"
        "two runs with the same seed and group schedule diverged:\n  %s\n  %s"
        first second;
    ]

let check_trace trace =
  let ds = ref [] in
  let add d = ds := d :: !ds in
  let installed = Hashtbl.create 16 in
  Array.iteri
    (fun i (ev : T.event) ->
      let loc = Printf.sprintf "event %d" i in
      match ev.T.kind with
      | T.Rule_install { group; _ } -> Hashtbl.replace installed group ()
      | T.Refine { group; _ } ->
          if not (Hashtbl.mem installed group) then
            add
              (D.errorf ~code:"CTRL005" ~loc
                 "group %d refined before any rule install landed" group)
      | T.Evict { group; _ } ->
          if not (Hashtbl.mem installed group) then
            add
              (D.errorf ~code:"CTRL005" ~loc
                 "group %d evicted without ever being installed" group)
      | _ -> ())
    (T.events trace);
  List.rev !ds
