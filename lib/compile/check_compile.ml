open Peel_prefix
module D = Peel_check.Diagnostic
module Plan = Peel.Plan
module Dataplane = Peel.Dataplane

(* Total prefix renderer: the checker runs on adversarial tables, so
   an out-of-space prefix must label a finding, not crash it. *)
let pstr m (p : Cover.prefix) =
  match Cover.to_string ~m p with
  | s -> s
  | exception Invalid_argument _ ->
      Printf.sprintf "{value=%d; len=%d}" p.Cover.value p.Cover.len

let eloc (tb : Compile.table) (e : Compile.entry) =
  Printf.sprintf "%s %s"
    (Compile.switch_to_string tb.Compile.switch)
    (pstr tb.Compile.id_bits e.Compile.prefix)

let subset a b = List.for_all (fun x -> List.mem x b) a

(* ------------------------------------------------------------------ *)
(* CMP001: compiled delivery == planned delivery                       *)
(* ------------------------------------------------------------------ *)

let check_equivalence fabric (t : Compile.t) =
  List.concat_map
    (fun (gid, (plan : Plan.t)) ->
      let loc = Printf.sprintf "group %d" gid in
      if plan.Plan.dests = [] then []
      else
        match
          let exact =
            Dataplane.deliver_exact fabric
              (Dataplane.exact_entry fabric ~group:gid ~members:plan.Plan.dests)
          in
          let reached = Compile.deliver_group fabric t ~group:gid in
          let planned =
            if t.Compile.aggregated then []
            else
              Dataplane.deliver fabric plan
              |> List.concat_map (fun d -> d.Dataplane.tors_reached)
              |> List.sort_uniq compare
          in
          (exact, reached, planned)
        with
        | exception Invalid_argument msg ->
            [ D.errorf ~code:"CMP001" ~loc "replay failed: %s" msg ]
        | exact, reached, planned ->
            let missing = List.filter (fun r -> not (List.mem r reached)) exact in
            let miss_ds =
              List.map
                (fun r ->
                  D.errorf ~code:"CMP001" ~loc
                    "compiled tables never reach member rack %d" r)
                missing
            in
            if t.Compile.aggregated then miss_ds
            else if
              (* Without aggregation the compiled tables are exactly the
                 used subset of the static tables: delivery must match
                 the planned static pipeline rack-for-rack. *)
              reached <> planned
            then
                miss_ds
                @ [
                    D.errorf ~code:"CMP001" ~loc
                      "unaggregated compile reaches %d racks, the planned data \
                       plane %d: the compiled tables are not \
                       delivery-equivalent"
                      (List.length reached) (List.length planned);
                  ]
              else miss_ds)
    t.Compile.batch

(* ------------------------------------------------------------------ *)
(* CMP002: no shadowed / unreachable rules                             *)
(* ------------------------------------------------------------------ *)

(* Replay every batch header through the tables as compiled (list
   order, first-ancestor-wins) and record which entry each header
   selects and for which group. *)
let replay_owners (t : Compile.t) =
  let owner_map : (Compile.switch * Cover.prefix, int list) Hashtbl.t =
    Hashtbl.create 64
  in
  let own sw tb gid header =
    match Compile.lpm tb header with
    | None -> ()
    | Some e ->
        let key = (sw, e.Compile.prefix) in
        let prev = Option.value (Hashtbl.find_opt owner_map key) ~default:[] in
        if not (List.mem gid prev) then Hashtbl.replace owner_map key (gid :: prev)
  in
  List.iter
    (fun (gid, (plan : Plan.t)) ->
      List.iter
        (fun (p : Plan.packet) ->
          (match (p.Plan.pod_prefix, Compile.find_table t Compile.Core) with
          | Some pp, Some tb -> own Compile.Core tb gid pp
          | _ -> ());
          List.iter
            (fun pod ->
              match Compile.find_table t (Compile.Agg pod) with
              | Some tb -> own (Compile.Agg pod) tb gid p.Plan.tor_prefix
              | None -> ())
            p.Plan.pods)
        plan.Plan.packets)
    t.Compile.batch;
  owner_map

let check_reachability (t : Compile.t) =
  let ds = ref [] in
  let add d = ds := d :: !ds in
  let owner_map = replay_owners t in
  List.iter
    (fun (tb : Compile.table) ->
      let seen = Hashtbl.create 16 in
      List.iteri
        (fun i (e : Compile.entry) ->
          if Hashtbl.mem seen e.Compile.prefix then
            add
              (D.errorf ~code:"CMP002" ~loc:(eloc tb e)
                 "duplicate entry: the later copy is shadowed under LPM \
                  priority order")
          else begin
            (* An earlier strict ancestor always matches first for any
               header under this entry: priority inversion. *)
            List.iteri
              (fun j (prev : Compile.entry) ->
                if
                  j < i
                  && prev.Compile.prefix <> e.Compile.prefix
                  && Cover.is_ancestor prev.Compile.prefix e.Compile.prefix
                then
                  add
                    (D.errorf ~code:"CMP002" ~loc:(eloc tb e)
                       "shadowed by earlier ancestor %s: LPM priority order \
                        requires longer prefixes first"
                       (pstr tb.Compile.id_bits prev.Compile.prefix)))
              tb.Compile.entries;
            Hashtbl.replace seen e.Compile.prefix ()
          end;
          let computed =
            List.sort compare
              (Option.value
                 (Hashtbl.find_opt owner_map (tb.Compile.switch, e.Compile.prefix))
                 ~default:[])
          in
          if computed = [] then
            add
              (D.errorf ~code:"CMP002" ~loc:(eloc tb e)
                 "unreachable: no header of the compiled batch selects this \
                  entry")
          else if computed <> e.Compile.owners then
            add
              (D.errorf ~code:"CMP002" ~loc:(eloc tb e)
                 "owner record [%s] disagrees with the LPM replay [%s]"
                 (String.concat "," (List.map string_of_int e.Compile.owners))
                 (String.concat "," (List.map string_of_int computed))))
        tb.Compile.entries)
    t.Compile.tables;
  List.rev !ds

(* ------------------------------------------------------------------ *)
(* CMP003: overlap / conflict between aggregated entries               *)
(* ------------------------------------------------------------------ *)

let check_conflicts (t : Compile.t) =
  let ds = ref [] in
  let add d = ds := d :: !ds in
  List.iter
    (fun (tb : Compile.table) ->
      (* Static rules are the per-prefix ground truth: every compiled
         entry must replicate to exactly its block. *)
      let static = Rules.static_table ~m:tb.Compile.id_bits in
      List.iter
        (fun (e : Compile.entry) ->
          (match Rules.lookup static e.Compile.prefix with
          | r ->
              if e.Compile.ports <> r.Rules.ports then
                add
                  (D.errorf ~code:"CMP003" ~loc:(eloc tb e)
                     "port set [%s] conflicts with the prefix block [%s]"
                     (String.concat "," (List.map string_of_int e.Compile.ports))
                     (String.concat "," (List.map string_of_int r.Rules.ports)))
          | exception Invalid_argument msg ->
              add (D.errorf ~code:"CMP003" ~loc:(eloc tb e) "%s" msg));
          (* Nested entries of different groups must agree where their
             blocks overlap: the inner rule's ports within the outer's. *)
          List.iter
            (fun (outer : Compile.entry) ->
              if
                outer.Compile.prefix <> e.Compile.prefix
                && Cover.is_ancestor outer.Compile.prefix e.Compile.prefix
                && not (subset e.Compile.ports outer.Compile.ports)
              then
                add
                  (D.errorf ~code:"CMP003" ~loc:(eloc tb e)
                     "replicates outside enclosing entry %s: overlapping \
                      entries conflict"
                     (pstr tb.Compile.id_bits outer.Compile.prefix)))
            tb.Compile.entries)
        tb.Compile.entries)
    t.Compile.tables;
  List.rev !ds

(* ------------------------------------------------------------------ *)
(* CMP004: TCAM budget proof                                           *)
(* ------------------------------------------------------------------ *)

let check_budget (t : Compile.t) =
  match t.Compile.capacity with
  | None -> []
  | Some cap ->
      List.filter_map
        (fun (tb : Compile.table) ->
          let n = List.length tb.Compile.entries in
          if n > cap then
            Some
              (D.errorf ~code:"CMP004"
                 ~loc:(Compile.switch_to_string tb.Compile.switch)
                 "%d entries (%d bytes) exceed the TCAM budget of %d entries" n
                 (Compile.table_bytes tb) cap)
          else None)
        t.Compile.tables

(* ------------------------------------------------------------------ *)
(* CMP005: aggregation soundness                                       *)
(* ------------------------------------------------------------------ *)

let check_aggregation (t : Compile.t) =
  let ds = ref [] in
  let add d = ds := d :: !ds in
  List.iter
    (fun (tb : Compile.table) ->
      let m = tb.Compile.id_bits in
      List.iter
        (fun (e : Compile.entry) ->
          if e.Compile.sources = [] then
            add
              (D.errorf ~code:"CMP005" ~loc:(eloc tb e)
                 "no sources recorded: cannot prove what this entry merged")
          else begin
            List.iter
              (fun s ->
                match Cover.validate ~m s with
                | exception Invalid_argument msg ->
                    add (D.errorf ~code:"CMP005" ~loc:(eloc tb e) "source: %s" msg)
                | () ->
                    if not (Cover.is_ancestor e.Compile.prefix s) then
                      add
                        (D.errorf ~code:"CMP005" ~loc:(eloc tb e)
                           "source %s lies outside the merged block"
                           (pstr m s)))
              e.Compile.sources;
            let union =
              List.concat_map
                (fun s ->
                  match Cover.expand ~m s with
                  | ports -> ports
                  | exception Invalid_argument _ -> [])
                e.Compile.sources
              |> List.sort_uniq compare
            in
            if union <> e.Compile.ports then
              add
                (D.errorf ~code:"CMP005" ~loc:(eloc tb e)
                   "port set is not the union of its sources' blocks ([%s] vs \
                    [%s]): the merge changed where the table replicates"
                   (String.concat "," (List.map string_of_int e.Compile.ports))
                   (String.concat "," (List.map string_of_int union)))
          end)
        tb.Compile.entries)
    t.Compile.tables;
  List.rev !ds

let check fabric t =
  D.sort
    (check_reachability t @ check_conflicts t @ check_budget t
   @ check_aggregation t @ check_equivalence fabric t)

(* ------------------------------------------------------------------ *)
(* Seeded corruptions                                                  *)
(* ------------------------------------------------------------------ *)

let corrupt code (t : Compile.t) =
  let map_nth n f l = List.mapi (fun i x -> if i = n then f x else x) l in
  let map_table n f = { t with Compile.tables = map_nth n f t.Compile.tables } in
  let map_first_entry f =
    map_table 0 (fun (tb : Compile.table) ->
        { tb with Compile.entries = map_nth 0 f tb.Compile.entries })
  in
  match code with
  | `Cmp001 ->
      (* Drop the last table's final (shortest-prefix) entry: its
         headers have no installed ancestor left, so the packets that
         selected it are silently dropped. *)
      map_table (List.length t.Compile.tables - 1) (fun (tb : Compile.table) ->
          match List.rev tb.Compile.entries with
          | [] -> tb
          | _ :: rest -> { tb with Compile.entries = List.rev rest })
  | `Cmp002 ->
      (* Append a duplicate of the highest-priority entry at the lowest
         priority: shadowed dead weight. *)
      map_table 0 (fun (tb : Compile.table) ->
          match tb.Compile.entries with
          | [] -> tb
          | e :: _ -> { tb with Compile.entries = tb.Compile.entries @ [ e ] })
  | `Cmp003 ->
      (* Knock one port off an entry: it no longer replicates to its
         whole block, conflicting with the static rule for the prefix. *)
      map_first_entry (fun (e : Compile.entry) ->
          { e with Compile.ports = List.tl e.Compile.ports })
  | `Cmp004 ->
      (* Rewrite the budget below the busiest table: the proof fails. *)
      { t with Compile.capacity = Some (Compile.max_entries t - 1) }
  | `Cmp005 ->
      (* Erase an entry's provenance: soundness becomes unprovable. *)
      map_first_entry (fun (e : Compile.entry) -> { e with Compile.sources = [] })
