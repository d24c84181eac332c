open Peel_topology
module D = Peel_check.Diagnostic
module G = Group_table

let member_racks fabric members =
  List.sort_uniq compare (List.map (Fabric.attach_tor fabric) members)

let check_group_cover (out : Service.outcome) slot =
  let fabric = out.Service.o_fabric in
  let g = Fabric.graph fabric in
  let groups = out.Service.o_groups in
  let gid = G.gid groups slot in
  let members = G.member_list groups slot in
  let loc = Printf.sprintf "group %d" gid in
  let ds = ref [] in
  let add d = ds := d :: !ds in
  let racks = member_racks fabric members in
  let entry = Peel.Dataplane.exact_entry fabric ~group:gid ~members in
  (match Peel.Dataplane.verify_exact fabric entry ~members with
  | Ok () -> ()
  | Error msg -> add (D.errorf ~code:"SVC001" ~loc "%s" msg));
  let tree_tors =
    List.filter
      (fun v -> (Graph.node g v).Graph.kind = Graph.Tor)
      (Peel_steiner.Tree.members (G.tree groups slot))
  in
  List.iter
    (fun tor ->
      if not (List.mem tor racks) then
        add
          (D.errorf ~code:"SVC001" ~loc
             "tree touches rack %d, which houses no member" tor))
    tree_tors;
  List.iter
    (fun rack ->
      if not (List.mem rack tree_tors) then
        add
          (D.errorf ~code:"SVC001" ~loc "tree misses member rack %d" rack))
    racks;
  List.rev !ds

let check_budget (out : Service.outcome) =
  match out.Service.o_tcam with
  | None -> []
  | Some tc -> Check_ctrl.check_budget ~code:"SVC002" tc

let check_stages (out : Service.outcome) =
  match out.Service.o_tcam with
  | None -> []
  | Some tc ->
      let groups = out.Service.o_groups in
      G.fold
        (fun acc slot ->
          let gid = G.gid groups slot in
          let loc = Printf.sprintf "group %d" gid in
          match G.stage groups slot with
          | G.Fallback ->
              (* An evicted or denied group must hold no entry anywhere:
                 partial sets cannot replicate exactly, so the data
                 plane must see it as pure unicast. *)
              List.filter_map
                (fun (sw, _) ->
                  if Tcam.holds tc ~switch:sw ~group:gid then
                    Some
                      (D.errorf ~code:"SVC003" ~loc
                         "fallback group still holds an entry at switch %d" sw)
                  else None)
                (Tcam.occupancy tc)
              @ acc
          | G.Installed ->
              (* Complete entry set: one entry at every switch of the
                 current tree. *)
              List.filter_map
                (fun sw ->
                  if not (Tcam.holds tc ~switch:sw ~group:gid) then
                    Some
                      (D.errorf ~code:"SVC003" ~loc
                         "installed group misses its entry at switch %d" sw)
                  else None)
                (G.switches groups slot)
              @ acc
          | G.Pending -> acc)
        groups []

let check_departed (out : Service.outcome) =
  let stale =
    match out.Service.o_tcam with
    | None -> []
    | Some tc ->
        List.concat_map
          (fun (sw, _) ->
            List.filter_map
              (fun gid ->
                if Hashtbl.mem out.Service.o_departed gid then
                  Some
                    (D.errorf ~code:"SVC004"
                       ~loc:(Printf.sprintf "group %d" gid)
                       "rule for the departed group survives at switch %d" sw)
                else None)
              (Tcam.groups_at tc ~switch:sw))
          (Tcam.occupancy tc)
  in
  let pending =
    List.filter_map
      (fun gid ->
        if Hashtbl.mem out.Service.o_departed gid then
          Some
            (D.errorf ~code:"SVC004" ~loc:(Printf.sprintf "group %d" gid)
               "departed group still sits in the install backlog")
        else None)
      out.Service.o_pending
  in
  (* Generation honesty: a departed gid must not resolve to a live
     arena slot — its slot was freed (and possibly recycled under a
     different gid, which is fine). *)
  let recycled =
    Hashtbl.fold
      (fun gid () acc ->
        match G.find out.Service.o_groups ~gid with
        | Some _ ->
            D.errorf ~code:"SVC004" ~loc:(Printf.sprintf "group %d" gid)
              "departed group still occupies a live arena slot"
            :: acc
        | None -> acc)
      out.Service.o_departed []
  in
  stale @ pending @ recycled

let check_state (out : Service.outcome) =
  let covers =
    G.fold
      (fun acc slot -> check_group_cover out slot @ acc)
      out.Service.o_groups []
  in
  D.sort (covers @ check_budget out @ check_stages out @ check_departed out)

let check_replay ~first ~second =
  if String.equal first second then []
  else
    [
      D.errorf ~code:"SVC005" ~loc:"replay"
        "two runs with the same seed and event stream diverged: %s vs %s"
        first second;
    ]
