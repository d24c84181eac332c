(* serve-ramp and serve-churn: an open-loop Poisson stream consumed by
   [Service.run], driven unpaced (work completed per second at a stated
   stream size, not latency under a rate).  Service layers are reached
   only through [Service.run]; the traced run times each layer's public
   functions on the unit's own events. *)

open Peel_topology
open Peel_workload
open Workload
module Service = Peel_ctrl.Service
module Check_service = Peel_ctrl.Check_service
module G = Peel_ctrl.Group_table
module Tcam = Peel_ctrl.Tcam
module Layer_peel = Peel_steiner.Layer_peel
module Tree = Peel_steiner.Tree
module Plan = Peel.Plan
module Pool = Peel_util.Pool
module Rng = Peel_util.Rng
module Trace = Peel_sim.Trace
module Diagnostic = Peel_check.Diagnostic

let mb x = x *. 1e6

type spec = {
  base_seed : int;
  tenants : unit -> Stream.tenant list;
  capacity : int;
  events : size -> int;
}

(* The E22 stream: long-hold tenants, so the live population ramps
   with the event count and almost every create is a memo hit. *)
let ramp =
  {
    base_seed = 4200;
    tenants =
      (fun () ->
        [
          Stream.tenant ~rate:4000.0 ~scale:3 ~bytes:(mb 1.0) ~hold:1e6 ~churn:5e-4
            ~sends:5e-4 ();
          Stream.tenant ~rate:100.0 ~scale:8 ~bytes:(mb 4.0) ~hold:1e6 ~churn:5e-4
            ~sends:1e-3 ~fragmentation:0.25 ();
        ]);
    capacity = 1024;
    events = (function Smoke -> 3_000 | Bench -> 300_000 | Full -> 1_200_000);
  }

(* The E20 tenant mix: short holds and heavy churn, so membership
   deltas, splices, plan misses and a 16-entry TCAM dominate. *)
let churn =
  {
    base_seed = 2000;
    tenants =
      (fun () ->
        [
          Stream.tenant ~rate:400.0 ~scale:6 ~bytes:(mb 1.0) ~hold:0.5 ~churn:80.0
            ~sends:40.0 ();
          Stream.tenant ~rate:150.0 ~scale:12 ~bytes:(mb 4.0) ~hold:0.3 ~churn:30.0
            ~sends:20.0 ~fragmentation:0.5 ();
        ]);
    capacity = 16;
    events = (function Smoke -> 2_000 | Bench -> 100_000 | Full -> 400_000);
  }

(* Every field spelled out, so neither the environment
   ([PEEL_SERVE_BATCH]) nor a later change of the defaults moves the
   workload. *)
let config spec =
  {
    Service.capacity = spec.capacity;
    policy = Tcam.Lru;
    admission = Service.Evict;
    batch = 8;
    install_delay = 2e-3;
    budget = Some 1;
    salt = None;
    use_cache = true;
    cache_capacity = 65536;
    gc_space_overhead = None;
  }

let fabric () = Fabric.leaf_spine ~spines:4 ~leaves:8 ~hosts_per_leaf:4 ()

let outcome_of (out : Service.outcome) wall_s =
  let s = out.Service.o_slo in
  {
    ops = s.Service.events;
    wall_s;
    digest = out.Service.o_fingerprint;
    sends = s.Service.sends;
    link_bytes = s.Service.multicast_link_bytes +. s.Service.unicast_link_bytes;
    check =
      (fun () ->
        Check_service.check_state out |> Diagnostic.errors
        |> List.map Diagnostic.to_string);
  }

(* ---------------- layer probes ---------------- *)

(* Bounded memo model: counts the misses a [Peel_steiner.Memo] of the
   service's capacity would take on a key sequence (insertions stop
   once full, as in the real memo). *)
type memo_model = { keys : (int * int list, unit) Hashtbl.t; mutable misses : int }

let memo_model () = { keys = Hashtbl.create 4096; misses = 0 }

let memo_lookup m cap k =
  if not (Hashtbl.mem m.keys k) then begin
    m.misses <- m.misses + 1;
    if Hashtbl.length m.keys < cap then Hashtbl.add m.keys k ()
  end

let rec insert x = function
  | [] -> [ x ]
  | y :: _ as l when x < y -> x :: l
  | y :: rest when x = y -> y :: rest
  | y :: rest -> y :: insert x rest

(* Per-call nanoseconds of [f] over [n] calls, recorded as one span. *)
let per_call sp ~parent name n f =
  if n = 0 then 0.0
  else
    Spans.with_ sp ~parent ~calls:n name (fun _ ->
        let t0 = Util.now_ns () in
        for i = 0 to n - 1 do
          f i
        done;
        Util.ns_since t0 /. float_of_int n)

type tracked = { src : int; mutable members : int list; mutable tree : Tree.t option }

let probe spec fabric (stream : Stream.t) ~events ~next_ns ~wall_s ~fanout_share ~fanout_s
    (s : Service.slo) sp ~parent =
  let cfg = config spec in
  let graph = Fabric.graph fabric in
  let cap = cfg.Service.cache_capacity in
  let dists = Hashtbl.create 64 in
  let dist src =
    match Hashtbl.find_opt dists src with
    | Some d -> d
    | None ->
        let d = Graph.bfs_dist graph src in
        Hashtbl.add dists src d;
        d
  in
  let build ~source ~dests =
    match Layer_peel.build graph ~source ~dests with
    | Some t -> t
    | None -> failwith "serve probe: group unreachable"
  in
  let entry_switches t =
    Tree.switch_members graph t
    |> List.filter (fun v -> (Graph.node graph v).Graph.kind <> Graph.Tor)
  in
  (* One pass over the unit's events: memo key sequences, the create
     samples, and timed splices and bound checks on the first deltas. *)
  let tree_memo = memo_model () and bound_memo = memo_model () and plan_memo = memo_model () in
  let groups = Hashtbl.create 4096 in
  let add_cap = 20_000 in
  let creates = ref [] and n_creates = ref 0 and distinct = ref [] and n_distinct = ref 0 in
  let splice_cap = 5000 in
  let splices = ref 0 and accepted = ref 0 and splice_ns = ref 0.0 in
  let bounds = ref 0 and bound_ns = ref 0.0 in
  Spans.with_ sp ~parent ~calls:events "probe.replay_deltas" (fun _ ->
      for _ = 1 to events do
        let ev = Stream.next stream in
        match ev.Stream.ev_kind with
          | Stream.Create g ->
              let k = (g.Spec.g_source, g.Spec.g_members) in
              let before = tree_memo.misses in
              memo_lookup tree_memo cap k;
              memo_lookup plan_memo cap k;
              if tree_memo.misses > before && !n_distinct < 1000 then begin
                distinct := (g.Spec.g_source, g.Spec.g_dests) :: !distinct;
                incr n_distinct
              end;
              if !n_creates < add_cap then begin
                creates := g :: !creates;
                incr n_creates
              end;
              Hashtbl.replace groups g.Spec.g_id
                { src = g.Spec.g_source; members = g.Spec.g_members; tree = None }
          | Stream.Join { gid; endpoint } | Stream.Leave { gid; endpoint } -> (
              match Hashtbl.find_opt groups gid with
              | None -> ()
              | Some g ->
                  let add = match ev.Stream.ev_kind with Stream.Join _ -> true | _ -> false in
                  let old_dests = List.filter (fun m -> m <> g.src) g.members in
                  g.members <-
                    (if add then insert endpoint g.members
                     else List.filter (fun m -> m <> endpoint) g.members);
                  let k = (g.src, g.members) in
                  memo_lookup bound_memo cap k;
                  memo_lookup plan_memo cap k;
                  let dests = List.filter (fun m -> m <> g.src) g.members in
                  if !splices < splice_cap then begin
                    let prev =
                      match g.tree with
                      | Some t -> t
                      | None -> build ~source:g.src ~dests:old_dests
                    in
                    let delta = if add then Layer_peel.Add endpoint else Layer_peel.Remove endpoint in
                    let t0 = Util.now_ns () in
                    let r =
                      Layer_peel.splice ~dist:(dist g.src) graph ~prev ~source:g.src ~dests ~delta
                    in
                    splice_ns := !splice_ns +. Util.ns_since t0;
                    incr splices;
                    let tree =
                      match r with
                      | None -> build ~source:g.src ~dests
                      | Some t ->
                          let t0 = Util.now_ns () in
                          let opt =
                            Peel_check.Check_tree.symmetric_lower_bound fabric ~source:g.src ~dests
                          in
                          bound_ns := !bound_ns +. Util.ns_since t0;
                          incr bounds;
                          let far =
                            List.fold_left (fun a d -> max a (dist g.src).(d)) 0 dests
                          in
                          let ok_bound =
                            match opt with
                            | None -> true
                            | Some o -> Tree.cost t <= max 1 (min far (List.length dests)) * max 1 o
                          in
                          if Result.is_ok (Tree.validate graph t ~dests) && ok_bound then begin
                            incr accepted;
                            t
                          end
                          else build ~source:g.src ~dests
                    in
                    g.tree <- Some tree
                  end)
          | Stream.Depart { gid } -> Hashtbl.remove groups gid
          | Stream.Send _ -> ()
      done);
  let creates = Array.of_list (List.rev !creates) in
  let distinct = Array.of_list (List.rev !distinct) in
  let nd = Array.length distinct in
  let build_ns =
    per_call sp ~parent "steiner.layer_peel.build" nd (fun i ->
        let source, dests = distinct.(i) in
        ignore (build ~source ~dests))
  in
  let plans = Array.make nd None in
  let plan_ns =
    per_call sp ~parent "core.plan.build" nd (fun i ->
        let source, dests = distinct.(i) in
        plans.(i) <- Some (Plan.build ?budget:cfg.Service.budget fabric ~source ~dests))
  in
  let batch i =
    List.init (min 8 nd) (fun j ->
        let idx = ((i * 8) + j) mod nd in
        (idx, Option.get plans.(idx)))
  in
  let count_ns =
    per_call sp ~parent "compile.count_entries" (if nd = 0 then 0 else max 1 (nd / 8))
      (fun i -> ignore (Peel_compile.count_entries fabric (batch i)))
  in
  (* Group_table.add on the first creates, trees and switch sets
     prepared outside the timed loop. *)
  let n_add = Array.length creates in
  let trees = Hashtbl.create 1024 in
  let prepared =
    Array.init n_add (fun i ->
        let g = creates.(i) in
        let k = (g.Spec.g_source, g.Spec.g_members) in
        let t =
          match Hashtbl.find_opt trees k with
          | Some t -> t
          | None ->
              let t = build ~source:g.Spec.g_source ~dests:g.Spec.g_dests in
              Hashtbl.add trees k t;
              t
        in
        (g, t, entry_switches t, dist g.Spec.g_source))
  in
  let table = G.create ~width:(Graph.num_nodes graph) () in
  let add_ns =
    per_call sp ~parent "ctrl.group_table.add" n_add (fun i ->
        let g, tree, switches, dist = prepared.(i) in
        ignore
          (G.add table ~gid:g.Spec.g_id ~source:g.Spec.g_source ~members:g.Spec.g_members
             ~tree ~switches ~dist ~stage:G.Pending))
  in
  (* Tcam.install on a sharded table saturated at the workload's
     capacity with the workload's own switch sets. *)
  let sets =
    Array.to_list prepared |> List.filter_map (fun (_, _, sw, _) -> if sw = [] then None else Some sw)
    |> Array.of_list
  in
  let install_ns =
    if Array.length sets = 0 then 0.0
    else begin
      let shard_of sw =
        let nd = Graph.node graph sw in
        (if nd.Graph.pod >= 0 then nd.Graph.pod else nd.Graph.idx) mod 8
      in
      let tc = Tcam.create_sharded ~capacity:spec.capacity ~policy:Tcam.Lru ~shards:8 ~shard_of in
      let switches = List.sort_uniq compare (List.concat (Array.to_list sets)) in
      let gid = ref 0 in
      let install_set () =
        List.iter
          (fun sw -> ignore (Tcam.install tc ~now:(float_of_int !gid) ~switch:sw ~group:!gid))
          sets.(!gid mod Array.length sets);
        incr gid
      in
      let fill = 2 * spec.capacity * List.length switches in
      while !gid < fill && Tcam.evictions tc < spec.capacity do
        install_set ()
      done;
      let items =
        Array.init 20_000 (fun i ->
            let g = !gid + i in
            (List.nth sets.(g mod Array.length sets) 0, g))
      in
      per_call sp ~parent "ctrl.tcam.install" (Array.length items) (fun i ->
          let sw, g = items.(i) in
          ignore (Tcam.install tc ~now:(float_of_int g) ~switch:sw ~group:g))
    end
  in
  let pool = Pool.create ~jobs:(Util.fanout_jobs ()) () in
  let tiny = List.init 8 Fun.id in
  let par_map_ns =
    per_call sp ~parent "util.pool.par_map" 200 (fun _ ->
        ignore (Pool.par_map ~pool (fun x -> x + 1) tiny))
  in
  (* Attribution: service-reported call counts times probed costs.  The
     slo reports one miss total for the tree, plan and bound memos; it
     is split in the proportions the memo models saw. *)
  let modeled = float_of_int (tree_memo.misses + plan_memo.misses + bound_memo.misses) in
  let scale = if modeled > 0.0 then float_of_int s.Service.cache_misses /. modeled else 0.0 in
  let tree_calls = (float_of_int tree_memo.misses *. scale) +. float_of_int s.Service.splice_fallbacks in
  let plan_calls = float_of_int plan_memo.misses *. scale in
  let bound_calls = float_of_int bound_memo.misses *. scale in
  let f = float_of_int in
  let attributed_ns =
    (f s.Service.events *. next_ns)
    +. (f s.Service.creates *. add_ns)
    +. (tree_calls *. build_ns)
    +. (f (s.Service.joins + s.Service.leaves) *. (if !splices = 0 then 0.0 else !splice_ns /. f !splices))
    +. (bound_calls *. if !bounds = 0 then 0.0 else !bound_ns /. f !bounds)
    +. (plan_calls *. plan_ns)
    +. (f s.Service.batches *. count_ns)
    +. (fanout_s *. 1e9)
    +. (f s.Service.installs *. install_ns)
  in
  let ratio a b = if b = 0 then 0.0 else f a /. f b in
  let lookups = s.Service.cache_hits + s.Service.cache_misses in
  let planned = s.Service.creates + s.Service.joins + s.Service.leaves in
  [
    layer "workload.stream.next_ns" next_ns s.Service.events;
    layer "ctrl.group_table.add_ns" add_ns n_add;
    layer "ctrl.group_table.live" (f s.Service.groups_live) 1;
    layer "steiner.memo.hit_ratio" (ratio s.Service.cache_hits lookups) lookups;
    layer "steiner.memo.misses" (f s.Service.cache_misses) lookups;
    layer "steiner.layer_peel.build_ns" build_ns nd;
    layer "steiner.layer_peel.build_calls" (Float.round tree_calls) s.Service.full_repeels;
    layer "steiner.layer_peel.splice_ns" (if !splices = 0 then 0.0 else !splice_ns /. f !splices) !splices;
    layer "steiner.splice.accept_ratio" (ratio !accepted !splices) !splices;
    layer "check.check_tree.bound_ns" (if !bounds = 0 then 0.0 else !bound_ns /. f !bounds) !bounds;
    layer "core.plan.build_ns" plan_ns nd;
    layer "compile.count_entries_ns" count_ns (if nd = 0 then 0 else max 1 (nd / 8));
    layer "ctrl.tcam.install_ns" install_ns (if Array.length sets = 0 then 0 else 20_000);
    layer "ctrl.tcam.installs" (f s.Service.installs) s.Service.batches;
    layer "ctrl.tcam.evict_ratio" (ratio s.Service.evictions s.Service.installs) s.Service.installs;
    layer "util.pool.par_map_ns" par_map_ns 200;
    layer "util.pool.fanout_share" fanout_share s.Service.batches;
    layer "ctrl.service.plan_p99_us" (s.Service.plan_p99_s *. 1e6) planned;
    layer "ctrl.service.batches" (f s.Service.batches) s.Service.batches;
    layer "ctrl.service.max_backlog" (f s.Service.max_backlog) s.Service.batches;
    layer "ctrl.service.multicast_share"
      (ratio s.Service.multicast_chunks (s.Service.multicast_chunks + s.Service.unicast_chunks))
      s.Service.sends;
    layer "ctrl.service.unattributed_share" (1.0 -. (attributed_ns /. (wall_s *. 1e9))) s.Service.events;
  ]

let setup spec size ~seed ~jobs =
  let fabric = fabric () in
  let seed = spec.base_seed + seed in
  let events = spec.events size in
  let cfg = config spec in
  let mk_stream () = Stream.create fabric (Rng.create seed) ~tenants:(spec.tenants ()) () in
  (* The first stream is part of set-up; later units make their own
     outside the timed call. *)
  let first = ref (Some (mk_stream ())) in
  let stream () =
    match !first with
    | Some st ->
        first := None;
        st
    | None -> mk_stream ()
  in
  let run_unit () =
    let st = stream () in
    let out, wall = Util.timed (fun () -> Service.run ~cfg ~jobs fabric ~events st) in
    outcome_of out wall
  in
  let traced sp ~root =
    let st = stream () in
    let tr = Trace.create ~level:Trace.Counters () in
    let mw0 = Gc.minor_words () in
    let out, wall =
      Spans.with_ sp ~parent:root ~calls:events "ctrl.service.run" (fun _ ->
          Util.timed (fun () -> Service.run ~cfg ~jobs ~trace:tr fabric ~events st))
    in
    let minor = Gc.minor_words () -. mw0 in
    (* The same unit at the other worker count (one domain against
       two): what the Pool fan-out adds, and the SVC005 replay witness
       (the decision log must not depend on jobs). *)
    let other = if jobs = 1 then Util.fanout_jobs () else 1 in
    let out', wall' =
      Spans.with_ sp ~parent:root ~calls:events (Printf.sprintf "ctrl.service.run_jobs%d" other)
        (fun _ ->
          let st = mk_stream () in
          Util.timed (fun () -> Service.run ~cfg ~jobs:other fabric ~events st))
    in
    let replay =
      Check_service.check_replay ~first:out.Service.o_fingerprint
        ~second:out'.Service.o_fingerprint
      |> Diagnostic.errors |> List.map Diagnostic.to_string
    in
    let wall1, wall2 = if jobs = 1 then (wall, wall') else (wall', wall) in
    let fanout_share = if other = jobs then 0.0 else 1.0 -. (wall1 /. wall2) in
    let fanout_s = if jobs > 1 then wall2 -. wall1 else 0.0 in
    let next_ns =
      Spans.with_ sp ~parent:root ~calls:events "workload.stream.next" (fun _ ->
          let st = mk_stream () in
          let t0 = Util.now_ns () in
          for _ = 1 to events do
            ignore (Stream.next st)
          done;
          Util.ns_since t0 /. float_of_int events)
    in
    let layers =
      Spans.with_ sp ~parent:root "probes" (fun parent ->
          probe spec fabric (mk_stream ()) ~events ~next_ns ~wall_s:wall ~fanout_share
            ~fanout_s out.Service.o_slo sp ~parent)
    in
    let o = outcome_of out wall in
    ( { o with check = (fun () -> replay @ o.check ()) },
      layer "ctrl.service.minor_words_per_event" (minor /. float_of_int events) events
      :: layers )
  in
  { run_unit; traced }

let workload name why spec pins = { name; why; pins; setup = setup spec }
