open Peel_topology
open Peel_workload
module Tree = Peel_steiner.Tree
module Layer_peel = Peel_steiner.Layer_peel
module Plan = Peel.Plan
module Pool = Peel_util.Pool

type admission = Evict | Deny

let admission_to_string = function Evict -> "evict" | Deny -> "deny"

let admission_of_string = function
  | "evict" -> Some Evict
  | "deny" -> Some Deny
  | _ -> None

type config = {
  capacity : int;
  policy : Tcam.policy;
  admission : admission;
  batch : int;
  install_delay : float;
  budget : int option;
  salt : int option;
}

let default_config =
  {
    capacity = 1024;
    policy = Tcam.Lru;
    admission = Evict;
    batch = 8;
    install_delay = 2e-3;
    budget = Some 1;
    salt = None;
  }

type stage = Pending | Installed | Fallback

let stage_to_string = function
  | Pending -> "pending"
  | Installed -> "installed"
  | Fallback -> "fallback"

type gstate = {
  sg_gid : int;
  sg_source : int;
  mutable sg_members : int list;
  mutable sg_tree : Tree.t;
  mutable sg_switches : int list;
  mutable sg_stage : stage;
  mutable sg_replans : int;
  sg_dist : int array;
}

type slo = {
  events : int;
  creates : int;
  joins : int;
  leaves : int;
  sends : int;
  departs : int;
  delta_repeels : int;
  full_repeels : int;
  splice_fallbacks : int;
  batches : int;
  installs : int;
  evictions : int;
  denials : int;
  compiled_entries : int;
  multicast_chunks : int;
  unicast_chunks : int;
  multicast_link_bytes : float;
  unicast_link_bytes : float;
  max_backlog : int;
  final_backlog : int;
  plan_p50_s : float;
  plan_p99_s : float;
  plan_max_s : float;
  events_per_sec : float;
  wall_s : float;
}

type outcome = {
  o_cfg : config;
  o_fabric : Fabric.t;
  o_tcam : Tcam.t option;
  o_groups : (int, gstate) Hashtbl.t;
  o_departed : (int, unit) Hashtbl.t;
  o_pending : int list;
  o_slo : slo;
  o_fingerprint : string;
}

(* ------------------------------------------------------------------ *)
(* Deterministic digest: FNV-1a over the decision log, so replays at  *)
(* any worker count can be compared byte-for-byte (SVC005).           *)
(* ------------------------------------------------------------------ *)

let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

type digest = { mutable h : int64 }

let digest_create () = { h = fnv_offset }

let digest_string d s =
  String.iter
    (fun c ->
      d.h <- Int64.mul (Int64.logxor d.h (Int64.of_int (Char.code c))) fnv_prime)
    s

let digest_hex d = Printf.sprintf "%016Lx" d.h

(* ------------------------------------------------------------------ *)
(* The service loop                                                   *)
(* ------------------------------------------------------------------ *)

type state = {
  cfg : config;
  fabric : Fabric.t;
  graph : Graph.t;
  tcam : Tcam.t option;
  pool : Pool.t;
  groups : (int, gstate) Hashtbl.t;
  departed : (int, unit) Hashtbl.t;
  digest : digest;
  mutable pending : int list;  (* reverse enqueue order *)
  mutable pending_since : float;
  (* counters *)
  mutable creates : int;
  mutable joins : int;
  mutable leaves : int;
  mutable sends : int;
  mutable departs : int;
  mutable delta_repeels : int;
  mutable full_repeels : int;
  mutable splice_fallbacks : int;
  mutable batches : int;
  mutable denials : int;
  mutable compiled_entries : int;
  mutable multicast_chunks : int;
  mutable unicast_chunks : int;
  mutable multicast_link_bytes : float;
  mutable unicast_link_bytes : float;
  mutable max_backlog : int;
  mutable plan_lat : float list;
}

let entry_switches g tree =
  Peel_steiner.Tree.switch_members g tree
  |> List.filter (fun v -> (Graph.node g v).Graph.kind <> Graph.Tor)

let dests_of gs = List.filter (fun m -> m <> gs.sg_source) gs.sg_members

let log_event st ~(ev : Stream.event) tag =
  digest_string st.digest
    (Printf.sprintf "%d:%s:%s;" ev.Stream.ev_seq
       (Stream.kind_to_string ev.Stream.ev_kind)
       tag)

let timed st f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  st.plan_lat <- (Unix.gettimeofday () -. t0) :: st.plan_lat;
  r

let enqueue_install st ~now gid =
  if st.cfg.capacity > 0 then begin
    if st.pending = [] then st.pending_since <- now;
    if not (List.mem gid st.pending) then st.pending <- gid :: st.pending
  end

(* Evict a group everywhere: its partial entry set cannot replicate
   exactly, so it degrades to the unicast fallback path. *)
let demote st victim =
  (match st.tcam with
  | Some tc -> ignore (Tcam.remove_group tc ~group:victim)
  | None -> ());
  match Hashtbl.find_opt st.groups victim with
  | Some vs -> vs.sg_stage <- Fallback
  | None -> ()

(* Flush the pending batch: lower every live pending group's prefix
   plan through the fleet compiler — sharded across pool domains by
   the group's source pod — then claim TCAM space for the exact
   per-group entries under the admission policy. *)
let flush st ~now =
  let batch = List.rev st.pending in
  st.pending <- [];
  let backlog = List.length batch in
  if backlog > st.max_backlog then st.max_backlog <- backlog;
  let live =
    List.filter_map
      (fun gid ->
        match Hashtbl.find_opt st.groups gid with
        | Some gs -> Some (gid, gs)
        | None -> None)
      batch
  in
  if live <> [] then begin
    st.batches <- st.batches + 1;
    (* Shard by source pod; shards compile independently (pure), so
       the pool fan-out is bit-deterministic at any worker count. *)
    let shard_of (_, gs) =
      Fabric.pod_of_tor st.fabric (Fabric.attach_tor st.fabric gs.sg_source)
    in
    let shards =
      List.sort_uniq compare (List.map shard_of live)
      |> List.map (fun pod -> (pod, List.filter (fun c -> shard_of c = pod) live))
    in
    let compiled =
      Pool.par_map ~pool:st.pool
        (fun (_pod, cells) ->
          let pairs =
            List.map
              (fun (gid, gs) ->
                ( gid,
                  Plan.build ?budget:st.cfg.budget st.fabric
                    ~source:gs.sg_source ~dests:(dests_of gs) ))
              cells
          in
          Peel_compile.compile st.fabric pairs)
        shards
    in
    List.iter
      (fun c -> st.compiled_entries <- st.compiled_entries + Peel_compile.Compile.total_entries c)
      compiled;
    (* Admission, in batch order. *)
    match st.tcam with
    | None -> ()
    | Some tc ->
        List.iter
          (fun (gid, gs) ->
            match st.cfg.admission with
            | Evict ->
                List.iter
                  (fun sw ->
                    let victims = Tcam.install tc ~now ~switch:sw ~group:gid in
                    List.iter (demote st) victims)
                  gs.sg_switches;
                gs.sg_stage <- Installed
            | Deny ->
                (* All-or-nothing: probe every switch first so a denied
                   group never leaves partial entries behind. *)
                let fits =
                  List.for_all
                    (fun sw ->
                      Tcam.holds tc ~switch:sw ~group:gid
                      || Tcam.used tc ~switch:sw < Tcam.capacity tc)
                    gs.sg_switches
                in
                if fits then begin
                  List.iter
                    (fun sw ->
                      ignore (Tcam.install_strict tc ~now ~switch:sw ~group:gid))
                    gs.sg_switches;
                  gs.sg_stage <- Installed
                end
                else begin
                  (* The group may still hold entries from a previous
                     install (membership deltas only free removed
                     switches); reclaim them all so a denied group
                     never keeps a partial entry set (SVC003). *)
                  demote st gid;
                  st.denials <- st.denials + 1
                end)
          live
  end

let maybe_flush st ~now =
  if
    st.pending <> []
    && (List.length st.pending >= st.cfg.batch
       || now -. st.pending_since >= st.cfg.install_delay)
  then flush st ~now

(* Re-plan a group after a membership delta: splice the subscriber's
   subtree in/out, falling back to a full peel when the splice fails,
   breaks tree validity, or leaves the Theorem 2.5 cost envelope. *)
let replan st gs ~delta =
  let source = gs.sg_source in
  let dests = dests_of gs in
  let full () =
    st.full_repeels <- st.full_repeels + 1;
    match Layer_peel.build ?salt:st.cfg.salt st.graph ~source ~dests with
    | Some t -> t
    | None -> failwith "Service.replan: destinations unreachable"
  in
  let spliced =
    Layer_peel.splice ?salt:st.cfg.salt ~dist:gs.sg_dist st.graph
      ~prev:gs.sg_tree ~source ~dests ~delta
  in
  let tree =
    match spliced with
    | None ->
        st.splice_fallbacks <- st.splice_fallbacks + 1;
        full ()
    | Some t -> (
        let ok_shape = Result.is_ok (Tree.validate st.graph t ~dests) in
        let ok_bound =
          match
            Peel_check.Check_tree.symmetric_lower_bound st.fabric ~source ~dests
          with
          | None -> true
          | Some opt -> (
              match Layer_peel.farthest_layer st.graph ~source ~dests with
              | None -> false
              | Some f ->
                  let factor = max 1 (min f (List.length dests)) in
                  Tree.cost t <= factor * max 1 opt)
        in
        if ok_shape && ok_bound then begin
          st.delta_repeels <- st.delta_repeels + 1;
          t
        end
        else begin
          st.splice_fallbacks <- st.splice_fallbacks + 1;
          full ()
        end)
  in
  gs.sg_tree <- tree;
  gs.sg_replans <- gs.sg_replans + 1;
  tree

(* A membership delta on an installed group updates its entry set:
   switches the new tree no longer visits free their entries at once,
   new switches go through the batched install path (the group rides
   the fallback until they land). *)
let update_entries st ~now gs =
  let switches = entry_switches st.graph gs.sg_tree in
  let removed = List.filter (fun s -> not (List.mem s switches)) gs.sg_switches in
  let added = List.filter (fun s -> not (List.mem s gs.sg_switches)) switches in
  gs.sg_switches <- switches;
  (match st.tcam with
  | Some tc ->
      List.iter
        (fun sw -> ignore (Tcam.remove_at tc ~switch:sw ~group:gs.sg_gid))
        removed
  | None -> ());
  if gs.sg_stage = Installed && added <> [] then begin
    gs.sg_stage <- Pending;
    enqueue_install st ~now gs.sg_gid
  end
  else if gs.sg_stage = Fallback then begin
    (* A membership change is a fresh admission request. *)
    gs.sg_stage <- Pending;
    enqueue_install st ~now gs.sg_gid
  end

let handle st (ev : Stream.event) =
  let now = ev.Stream.ev_time in
  (match ev.Stream.ev_kind with
  | Stream.Create group ->
      st.creates <- st.creates + 1;
      let gid = group.Spec.g_id in
      let source = group.Spec.g_source in
      let dests = group.Spec.g_dests in
      let dist = Graph.bfs_dist st.graph source in
      let tree =
        timed st (fun () ->
            match Layer_peel.build ?salt:st.cfg.salt st.graph ~source ~dests with
            | Some t -> t
            | None -> failwith "Service: group unreachable at creation")
      in
      st.full_repeels <- st.full_repeels + 1;
      let gs =
        {
          sg_gid = gid;
          sg_source = source;
          sg_members = group.Spec.g_members;
          sg_tree = tree;
          sg_switches = entry_switches st.graph tree;
          sg_stage = (if st.cfg.capacity > 0 then Pending else Fallback);
          sg_replans = 0;
          sg_dist = dist;
        }
      in
      Hashtbl.replace st.groups gid gs;
      enqueue_install st ~now gid;
      log_event st ~ev (Printf.sprintf "c%d" (List.length gs.sg_switches))
  | Stream.Join { gid; endpoint } -> (
      st.joins <- st.joins + 1;
      match Hashtbl.find_opt st.groups gid with
      | None -> log_event st ~ev "?"
      | Some gs ->
          gs.sg_members <- List.sort compare (endpoint :: gs.sg_members);
          let deltas_before = st.delta_repeels in
          ignore
            (timed st (fun () ->
                 replan st gs ~delta:(Layer_peel.Add endpoint)));
          update_entries st ~now gs;
          log_event st ~ev
            (if st.delta_repeels > deltas_before then "d" else "f"))
  | Stream.Leave { gid; endpoint } -> (
      st.leaves <- st.leaves + 1;
      match Hashtbl.find_opt st.groups gid with
      | None -> log_event st ~ev "?"
      | Some gs ->
          gs.sg_members <- List.filter (fun m -> m <> endpoint) gs.sg_members;
          let deltas_before = st.delta_repeels in
          ignore
            (timed st (fun () ->
                 replan st gs ~delta:(Layer_peel.Remove endpoint)));
          update_entries st ~now gs;
          log_event st ~ev
            (if st.delta_repeels > deltas_before then "d" else "f"))
  | Stream.Send { gid; bytes } -> (
      st.sends <- st.sends + 1;
      match Hashtbl.find_opt st.groups gid with
      | None -> log_event st ~ev "?"
      | Some gs -> (
          match gs.sg_stage with
          | Installed ->
              st.multicast_chunks <- st.multicast_chunks + 1;
              st.multicast_link_bytes <-
                st.multicast_link_bytes
                +. (bytes *. float_of_int (Tree.cost gs.sg_tree));
              (match st.tcam with
              | Some tc ->
                  List.iter
                    (fun sw -> Tcam.touch tc ~now ~switch:sw ~group:gid ~bytes)
                    gs.sg_switches
              | None -> ());
              log_event st ~ev "m"
          | Pending | Fallback ->
              (* Unicast fallback: one copy per destination, each
                 riding its whole shortest path. *)
              let hops =
                List.fold_left
                  (fun acc d -> acc + gs.sg_dist.(d))
                  0 (dests_of gs)
              in
              st.unicast_chunks <- st.unicast_chunks + 1;
              st.unicast_link_bytes <-
                st.unicast_link_bytes +. (bytes *. float_of_int hops);
              log_event st ~ev "u"))
  | Stream.Depart { gid } ->
      st.departs <- st.departs + 1;
      (match st.tcam with
      | Some tc -> ignore (Tcam.remove_group tc ~group:gid)
      | None -> ());
      Hashtbl.remove st.groups gid;
      Hashtbl.replace st.departed gid ();
      (* A departed group's pending install must never land (SVC004). *)
      st.pending <- List.filter (fun g -> g <> gid) st.pending;
      log_event st ~ev "x");
  maybe_flush st ~now

let percentile sorted p =
  match Array.length sorted with
  | 0 -> 0.0
  | n -> sorted.(min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1))

let run ?(cfg = default_config) ?jobs fabric ~events stream =
  if cfg.batch < 1 then invalid_arg "Service.run: batch must be >= 1";
  if cfg.install_delay < 0.0 || not (Float.is_finite cfg.install_delay) then
    invalid_arg "Service.run: install_delay must be finite and >= 0";
  let pool = Pool.create ?jobs () in
  let st =
    {
      cfg;
      fabric;
      graph = Fabric.graph fabric;
      tcam =
        (if cfg.capacity > 0 then
           Some (Tcam.create ~capacity:cfg.capacity ~policy:cfg.policy)
         else None);
      pool;
      groups = Hashtbl.create 64;
      departed = Hashtbl.create 64;
      digest = digest_create ();
      pending = [];
      pending_since = 0.0;
      creates = 0;
      joins = 0;
      leaves = 0;
      sends = 0;
      departs = 0;
      delta_repeels = 0;
      full_repeels = 0;
      splice_fallbacks = 0;
      batches = 0;
      denials = 0;
      compiled_entries = 0;
      multicast_chunks = 0;
      unicast_chunks = 0;
      multicast_link_bytes = 0.0;
      unicast_link_bytes = 0.0;
      max_backlog = 0;
      plan_lat = [];
    }
  in
  let t0 = Unix.gettimeofday () in
  let last_now = ref 0.0 in
  for _ = 1 to events do
    let ev = Stream.next stream in
    last_now := ev.Stream.ev_time;
    handle st ev
  done;
  (* Drain the backlog so the final state is quiescent; what remains
     in [o_pending] is the backlog depth at the moment the stream
     stopped. *)
  let final_backlog = List.length st.pending in
  if final_backlog > 0 then flush st ~now:!last_now;
  let wall = Unix.gettimeofday () -. t0 in
  let installs, evictions =
    match st.tcam with
    | Some tc -> (Tcam.installs tc, Tcam.evictions tc)
    | None -> (0, 0)
  in
  (* Counters fold into the digest so replays must agree on totals,
     not just per-event decisions. *)
  digest_string st.digest
    (Printf.sprintf "|i%d;e%d;d%d;b%d;ce%d;mc%d;uc%d;mb%.17g;ub%.17g" installs
       evictions st.denials st.batches st.compiled_entries st.multicast_chunks
       st.unicast_chunks st.multicast_link_bytes st.unicast_link_bytes);
  let lat = Array.of_list st.plan_lat in
  Array.sort compare lat;
  let slo =
    {
      events;
      creates = st.creates;
      joins = st.joins;
      leaves = st.leaves;
      sends = st.sends;
      departs = st.departs;
      delta_repeels = st.delta_repeels;
      full_repeels = st.full_repeels;
      splice_fallbacks = st.splice_fallbacks;
      batches = st.batches;
      installs;
      evictions;
      denials = st.denials;
      compiled_entries = st.compiled_entries;
      multicast_chunks = st.multicast_chunks;
      unicast_chunks = st.unicast_chunks;
      multicast_link_bytes = st.multicast_link_bytes;
      unicast_link_bytes = st.unicast_link_bytes;
      max_backlog = st.max_backlog;
      final_backlog;
      plan_p50_s = percentile lat 0.50;
      plan_p99_s = percentile lat 0.99;
      plan_max_s = (if Array.length lat = 0 then 0.0 else lat.(Array.length lat - 1));
      events_per_sec =
        (if wall > 0.0 then float_of_int events /. wall else 0.0);
      wall_s = wall;
    }
  in
  let out =
    {
      o_cfg = cfg;
      o_fabric = fabric;
      o_tcam = st.tcam;
      o_groups = st.groups;
      o_departed = st.departed;
      o_pending = List.rev st.pending;
      o_slo = slo;
      o_fingerprint = digest_hex st.digest;
    }
  in
  out
