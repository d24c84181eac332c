open Peel_topology
open Peel_workload
module Tree = Peel_steiner.Tree
module Layer_peel = Peel_steiner.Layer_peel
module Memo = Peel_steiner.Memo
module Plan = Peel.Plan
module Compile = Peel_compile.Compile
module Bitset = Peel_util.Bits.Bitset
module Trace = Peel_sim.Trace
module G = Group_table

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
  use_cache : bool;
  cache_capacity : int;
  gc_space_overhead : int option;
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
    use_cache = true;
    cache_capacity = 65536;
    gc_space_overhead = None;
  }

type stage = Group_table.stage = Pending | Installed | Fallback

let stage_to_string = Group_table.stage_to_string

type memo_counts = { hits : int; misses : int; entries : int }

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
  cache_hits : int;
  cache_misses : int;
  tree_memo : memo_counts;
  plan_memo : memo_counts;
  bound_memo : memo_counts;
  groups_live : int;
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
  o_groups : G.t;
  o_departed : (int, unit) Hashtbl.t;
  o_pending : int list;
  o_slo : slo;
  o_fingerprint : string;
}

(* ------------------------------------------------------------------ *)
(* Deterministic digest: FNV-1a over the decision log, so two runs of *)
(* one stream can be compared byte-for-byte (SVC005).                 *)
(* ------------------------------------------------------------------ *)

let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

(* The 64-bit state lives unboxed in 8 bytes: a [mutable int64]
   field would box a fresh [Int64] on every folded character. *)
type digest = Bytes.t

let digest_create () =
  let d = Bytes.create 8 in
  Bytes.set_int64_ne d 0 fnv_offset;
  d

let digest_char d c =
  Bytes.set_int64_ne d 0
    (Int64.mul
       (Int64.logxor (Bytes.get_int64_ne d 0) (Int64.of_int (Char.code c)))
       fnv_prime)

let digest_string d s = String.iter (digest_char d) s
let digest_hex d = Printf.sprintf "%016Lx" (Bytes.get_int64_ne d 0)

(* Allocation-free digest helpers: fold exactly the bytes the
   reference implementation's [Printf.sprintf]-built strings contain,
   without materializing them — the hot path runs one of these per
   event, and the fingerprint must stay byte-identical. *)

let rec digest_int d n =
  if n < 0 then begin
    (* [%d] renders the sign first; event fields are never negative,
       but keep the fold total. *)
    digest_char d '-';
    digest_pos d (-n)
  end
  else digest_pos d n

and digest_pos d n =
  if n >= 10 then digest_pos d (n / 10);
  digest_char d (Char.chr (Char.code '0' + (n mod 10)))

(* ------------------------------------------------------------------ *)
(* The service loop                                                   *)
(* ------------------------------------------------------------------ *)

type state = {
  cfg : config;
  fabric : Fabric.t;
  graph : Graph.t;
  tcam : Tcam.t option;
  groups : G.t;
  departed : (int, unit) Hashtbl.t;
  digest : digest;
  (* planning caches, keyed by (source, member set); [dists] is exact
     per-source data and always on, the memos honour [cfg.use_cache] *)
  dists : (int, int array) Hashtbl.t;
  trees : (Tree.t * int list) Memo.t;
  (* what [flush] consumes of a prefix plan: its rule footprint *)
  plans : Compile.footprint Memo.t;
  (* the symmetric Theorem 2.5 lower bound, [-1] for none: it costs
     the failure-free fabric, so a hit is exactly the value a fresh
     computation would produce *)
  bounds : int Memo.t;
  (* pending-install queue: an append-only gid buffer.  Departure just
     tombstones (clears the group's in_pending flag, O(1)); the queue
     compacts when tombstones dominate and drains wholesale at flush. *)
  mutable pq : int array;
  mutable pq_len : int;
  mutable pq_tomb : int;
  mutable pending_live : int;
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
  mutable plan_lat : float array;
  mutable plan_n : int;
}

let entry_switches g tree =
  List.filter
    (fun v ->
      let kind = (Graph.node g v).Graph.kind in
      Graph.kind_is_switch kind && kind <> Graph.Tor)
    (Tree.members tree)

(* The members but the source, ascending. *)
let dests_of st slot =
  let source = G.source st.groups slot in
  let desc = ref [] in
  Bitset.iter
    (fun m -> if m <> source then desc := m :: !desc)
    (G.members_bitset st.groups slot);
  List.rev !desc

(* Fold [Stream.kind_to_string ev.ev_kind] without the sprintf. *)
let digest_kind d (k : Stream.kind) =
  match k with
  | Stream.Create g ->
      digest_string d "create[g";
      digest_int d g.Spec.g_id;
      digest_char d ']'
  | Stream.Join { gid; endpoint } ->
      digest_string d "join[g";
      digest_int d gid;
      digest_char d '+';
      digest_int d endpoint;
      digest_char d ']'
  | Stream.Leave { gid; endpoint } ->
      digest_string d "leave[g";
      digest_int d gid;
      digest_char d '-';
      digest_int d endpoint;
      digest_char d ']'
  | Stream.Send { gid; _ } ->
      digest_string d "send[g";
      digest_int d gid;
      digest_char d ']'
  | Stream.Depart { gid } ->
      digest_string d "depart[g";
      digest_int d gid;
      digest_char d ']'

(* Byte-for-byte the reference fold of
   [sprintf "%d:%s:%s;" ev_seq (kind_to_string ev_kind) tag]. *)
let log_tagged st ~(ev : Stream.event) f =
  let d = st.digest in
  digest_int d ev.Stream.ev_seq;
  digest_char d ':';
  digest_kind d ev.Stream.ev_kind;
  digest_char d ':';
  f d;
  digest_char d ';'

let log_event st ~ev tag = log_tagged st ~ev (fun d -> digest_string d tag)

let lat_push st v =
  if st.plan_n = Array.length st.plan_lat then begin
    let a = Array.make (max 64 (2 * st.plan_n)) 0.0 in
    Array.blit st.plan_lat 0 a 0 st.plan_n;
    st.plan_lat <- a
  end;
  st.plan_lat.(st.plan_n) <- v;
  st.plan_n <- st.plan_n + 1

let timed st f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  lat_push st (Unix.gettimeofday () -. t0);
  r

let dist_of st source =
  match Hashtbl.find_opt st.dists source with
  | Some d -> d
  | None ->
      let d = Graph.bfs_dist st.graph source in
      Hashtbl.add st.dists source d;
      d

(* Memoized full peel: a hit returns the identical immutable tree a
   fresh build would produce (same graph, salt, source, dests), so
   cache-on and cache-off runs keep byte-identical decision logs.  The
   entry-switch set rides along — it is a pure function of the tree,
   and the create path consumes both. *)
let build_tree st ~source ~members_bs ~dests ~err =
  let build () =
    match Layer_peel.build ?salt:st.cfg.salt st.graph ~source ~dests with
    | Some t -> (t, entry_switches st.graph t)
    | None -> failwith err
  in
  let i = if st.cfg.use_cache then Memo.find st.trees ~source members_bs else -1 in
  if i >= 0 then Memo.get st.trees i
  else begin
    let ts = build () in
    if st.cfg.use_cache then Memo.add st.trees ~source members_bs ts;
    ts
  end

(* Farthest BFS layer over the cached per-source distance array, or
   [-1] when a destination is unreachable: the service never fails
   links, so the array [dist_of] computed at group creation is the BFS
   a fresh [Layer_peel.farthest_layer] would run — this just skips the
   BFS. *)
let rec farthest_in dist far = function
  | [] -> far
  | d :: rest ->
      if dist.(d) = Graph.unreachable then -1
      else farthest_in dist (max far dist.(d)) rest

let farthest st ~source ~dests = farthest_in (dist_of st source) 0 dests

(* The symmetric Theorem 2.5 lower bound, or [-1] when there is none,
   memoized by (source, member set).  [symmetric_lower_bound] costs the
   failure-free fabric and reads no link state, so it is pure in
   (source, dests) and a memo hit equals recomputing (the SVC005
   contract). *)
let lower_bound st ~source ~members_bs ~dests =
  let i = if st.cfg.use_cache then Memo.find st.bounds ~source members_bs else -1 in
  if i >= 0 then Memo.get st.bounds i
  else begin
    let opt =
      match Peel_check.Check_tree.symmetric_lower_bound st.fabric ~source ~dests with
      | Some opt -> opt
      | None -> -1
    in
    if st.cfg.use_cache then Memo.add st.bounds ~source members_bs opt;
    opt
  end

(* ---------------- pending queue ---------------- *)

let pq_compact st =
  (* Keep only gids still pending (departed tombstones drop), in order. *)
  let w = ref 0 in
  for r = 0 to st.pq_len - 1 do
    let gid = st.pq.(r) in
    let keep =
      match G.find st.groups ~gid with
      | Some slot -> G.in_pending st.groups slot
      | None -> false
    in
    if keep then begin
      st.pq.(!w) <- gid;
      incr w
    end
  done;
  st.pq_len <- !w;
  st.pq_tomb <- 0

let pq_push st gid =
  if st.pq_len = Array.length st.pq then begin
    if st.pq_len >= 64 && st.pq_tomb >= st.pq_len / 2 then pq_compact st
    else begin
      let a = Array.make (max 64 (2 * st.pq_len)) 0 in
      Array.blit st.pq 0 a 0 st.pq_len;
      st.pq <- a
    end
  end;
  st.pq.(st.pq_len) <- gid;
  st.pq_len <- st.pq_len + 1

let enqueue_install st ~now slot gid =
  if st.cfg.capacity > 0 && not (G.in_pending st.groups slot) then begin
    if st.pending_live = 0 then st.pending_since <- now;
    G.set_in_pending st.groups slot true;
    pq_push st gid;
    st.pending_live <- st.pending_live + 1
  end

(* Evict a group everywhere: its partial entry set cannot replicate
   exactly, so it degrades to the unicast fallback path. *)
let demote st victim =
  (match st.tcam with
  | Some tc -> ignore (Tcam.remove_group tc ~group:victim)
  | None -> ());
  match G.find st.groups ~gid:victim with
  | Some slot -> G.set_stage st.groups slot Fallback
  | None -> ()

let plan_of st slot =
  Plan.build ?budget:st.cfg.budget st.fabric ~source:(G.source st.groups slot)
    ~dests:(dests_of st slot)

(* The [PEEL_CHECK=1] proof of one pod's count: rebuild its plans and
   run the checked compile, which must install exactly [n] entries. *)
let recheck_count st cells n =
  let batch = List.map (fun (gid, slot, _, _) -> (gid, plan_of st slot)) cells in
  let want = Compile.total_entries (Peel_compile.compile st.fabric batch) in
  if want <> n then
    failwith
      (Printf.sprintf
         "Service.flush: the rule footprints count %d entries, the checked \
          compile %d"
         n want)

(* Flush the pending batch: count the entries an unaggregated compile
   of every live pending group's prefix plan installs, from the plans'
   rule footprints (a memo hit skips Plan.build), then claim TCAM space
   for each group's exact entries under the admission policy, in batch
   order — an eviction at one switch feeds back into later decisions,
   so the order is the semantics. *)
let flush st ~now =
  let backlog = st.pending_live in
  if backlog > st.max_backlog then st.max_backlog <- backlog;
  let live =
    let acc = ref [] in
    for r = st.pq_len - 1 downto 0 do
      let gid = st.pq.(r) in
      match G.find st.groups ~gid with
      | Some slot when G.in_pending st.groups slot ->
          G.set_in_pending st.groups slot false;
          acc := (gid, slot) :: !acc
      | _ -> ()
    done;
    !acc
  in
  st.pq_len <- 0;
  st.pq_tomb <- 0;
  st.pending_live <- 0;
  if live <> [] then begin
    st.batches <- st.batches + 1;
    (* Rule footprints, memoized by (source, member set).  Misses are
       inserted only after every lookup, so two groups of one batch
       with the same key both miss. *)
    let footprints =
      List.map
        (fun (gid, slot) ->
          let i =
            if st.cfg.use_cache then
              Memo.find st.plans ~source:(G.source st.groups slot)
                (G.members_bitset st.groups slot)
            else -1
          in
          let fp =
            if i >= 0 then Memo.get st.plans i
            else Compile.plan_footprint st.fabric ~group:gid (plan_of st slot)
          in
          (gid, slot, i, fp))
        live
    in
    if st.cfg.use_cache then
      List.iter
        (fun (_, slot, i, fp) ->
          if i < 0 then
            Memo.add st.plans ~source:(G.source st.groups slot)
              (G.members_bitset st.groups slot) fp)
        footprints;
    (* Count per source pod: a (switch, prefix) use shared by groups of
       different pods counts once per pod, and the fingerprint pins
       that total. *)
    let pod_of (_, slot, _, _) =
      Fabric.pod_of_tor st.fabric
        (Fabric.attach_tor st.fabric (G.source st.groups slot))
    in
    let check = Peel_check.enabled () in
    List.iter
      (fun pod ->
        let cells = List.filter (fun c -> pod_of c = pod) footprints in
        let n = Compile.count_footprints (List.map (fun (_, _, _, fp) -> fp) cells) in
        if check then recheck_count st cells n;
        st.compiled_entries <- st.compiled_entries + n)
      (List.sort_uniq compare (List.map pod_of footprints));
    (* Admission, in batch order. *)
    match st.tcam with
    | None -> ()
    | Some tc ->
        List.iter
          (fun (gid, slot) ->
            match st.cfg.admission with
            | Evict ->
                List.iter
                  (fun sw ->
                    let victims = Tcam.install tc ~now ~switch:sw ~group:gid in
                    List.iter (demote st) victims)
                  (G.switches st.groups slot);
                G.set_stage st.groups slot Installed
            | Deny ->
                (* All-or-nothing: probe every switch first so a denied
                   group never leaves partial entries behind. *)
                let fits =
                  List.for_all
                    (fun sw ->
                      Tcam.holds tc ~switch:sw ~group:gid
                      || Tcam.used tc ~switch:sw < Tcam.capacity tc)
                    (G.switches st.groups slot)
                in
                if fits then begin
                  List.iter
                    (fun sw ->
                      ignore (Tcam.install_strict tc ~now ~switch:sw ~group:gid))
                    (G.switches st.groups slot);
                  G.set_stage st.groups slot Installed
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
    st.pending_live > 0
    && (st.pending_live >= st.cfg.batch
       || now -. st.pending_since >= st.cfg.install_delay)
  then flush st ~now

(* Re-plan a group after a membership delta: splice the subscriber's
   subtree in/out, falling back to a full peel when the splice fails,
   breaks tree validity, or leaves the Theorem 2.5 cost envelope. *)
let replan st slot ~delta =
  let source = G.source st.groups slot in
  let dests = dests_of st slot in
  let full () =
    st.full_repeels <- st.full_repeels + 1;
    fst
      (build_tree st ~source ~members_bs:(G.members_bitset st.groups slot)
         ~dests ~err:"Service.replan: destinations unreachable")
  in
  let spliced =
    Layer_peel.splice ?salt:st.cfg.salt ~dist:(G.dist st.groups slot) st.graph
      ~prev:(G.tree st.groups slot) ~source ~dests ~delta
  in
  let tree =
    match spliced with
    | None ->
        st.splice_fallbacks <- st.splice_fallbacks + 1;
        full ()
    | Some t -> (
        let ok_shape = Result.is_ok (Tree.validate st.graph t ~dests) in
        let ok_bound =
          let opt =
            lower_bound st ~source
              ~members_bs:(G.members_bitset st.groups slot)
              ~dests
          in
          opt < 0
          ||
          let far = farthest st ~source ~dests in
          far >= 0 && Tree.cost t <= max 1 (min far (List.length dests)) * max 1 opt
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
  G.set_tree st.groups slot tree;
  G.bump_replans st.groups slot;
  tree

(* Free [gid]'s entries on the switches of ascending [prev] that
   ascending [next] lacks, in ascending order, in one merge; [added]
   becomes [true] once [next] has a switch [prev] lacks. *)
let rec free_dropped st ~gid ~added prev next =
  match (prev, next) with
  | [], [] -> added
  | [], _ :: _ -> true
  | p :: prev', [] ->
      free_entry st ~gid p;
      free_dropped st ~gid ~added prev' []
  | p :: prev', n :: next' ->
      if p = n then free_dropped st ~gid ~added prev' next'
      else if p < n then begin
        free_entry st ~gid p;
        free_dropped st ~gid ~added prev' next
      end
      else free_dropped st ~gid ~added:true prev next'

and free_entry st ~gid sw =
  match st.tcam with
  | Some tc -> ignore (Tcam.remove_at tc ~switch:sw ~group:gid)
  | None -> ()

(* A membership delta on an installed group updates its entry set:
   switches the new tree no longer visits free their entries at once,
   new switches go through the batched install path (the group rides
   the fallback until they land). *)
let update_entries st ~now slot =
  let gid = G.gid st.groups slot in
  let switches = entry_switches st.graph (G.tree st.groups slot) in
  let added =
    free_dropped st ~gid ~added:false (G.switches st.groups slot) switches
  in
  G.set_switches st.groups slot switches;
  match G.stage st.groups slot with
  | Installed when added ->
      G.set_stage st.groups slot Pending;
      enqueue_install st ~now slot gid
  | Fallback ->
      (* A membership change is a fresh admission request. *)
      G.set_stage st.groups slot Pending;
      enqueue_install st ~now slot gid
  | _ -> ()

let handle st (ev : Stream.event) =
  let now = ev.Stream.ev_time in
  (match ev.Stream.ev_kind with
  | Stream.Create group ->
      st.creates <- st.creates + 1;
      let gid = group.Spec.g_id in
      let source = group.Spec.g_source in
      let dests = group.Spec.g_dests in
      let members = group.Spec.g_members in
      let dist = dist_of st source in
      let members_bs = Bitset.of_list ~width:(G.width st.groups) members in
      let tree, switches =
        timed st (fun () ->
            build_tree st ~source ~members_bs ~dests
              ~err:"Service: group unreachable at creation")
      in
      st.full_repeels <- st.full_repeels + 1;
      let slot =
        G.add st.groups ~gid ~source ~members ~tree ~switches ~dist
          ~stage:(if st.cfg.capacity > 0 then Pending else Fallback)
      in
      enqueue_install st ~now slot gid;
      log_tagged st ~ev (fun d ->
          digest_char d 'c';
          digest_int d (List.length switches))
  | Stream.Join { gid; endpoint } -> (
      st.joins <- st.joins + 1;
      match G.find st.groups ~gid with
      | None -> log_event st ~ev "?"
      | Some slot ->
          G.add_member st.groups slot endpoint;
          let deltas_before = st.delta_repeels in
          ignore
            (timed st (fun () -> replan st slot ~delta:(Layer_peel.Add endpoint)));
          update_entries st ~now slot;
          log_event st ~ev
            (if st.delta_repeels > deltas_before then "d" else "f"))
  | Stream.Leave { gid; endpoint } -> (
      st.leaves <- st.leaves + 1;
      match G.find st.groups ~gid with
      | None -> log_event st ~ev "?"
      | Some slot ->
          G.remove_member st.groups slot endpoint;
          let deltas_before = st.delta_repeels in
          ignore
            (timed st (fun () ->
                 replan st slot ~delta:(Layer_peel.Remove endpoint)));
          update_entries st ~now slot;
          log_event st ~ev
            (if st.delta_repeels > deltas_before then "d" else "f"))
  | Stream.Send { gid; bytes } -> (
      st.sends <- st.sends + 1;
      match G.find st.groups ~gid with
      | None -> log_event st ~ev "?"
      | Some slot -> (
          match G.stage st.groups slot with
          | Installed ->
              st.multicast_chunks <- st.multicast_chunks + 1;
              st.multicast_link_bytes <-
                st.multicast_link_bytes
                +. (bytes *. float_of_int (Tree.cost (G.tree st.groups slot)));
              (match st.tcam with
              | Some tc ->
                  List.iter
                    (fun sw -> Tcam.touch tc ~now ~switch:sw ~group:gid ~bytes)
                    (G.switches st.groups slot)
              | None -> ());
              log_event st ~ev "m"
          | Pending | Fallback ->
              (* Unicast fallback: one copy per destination, each
                 riding its whole shortest path. *)
              let source = G.source st.groups slot in
              let dist = G.dist st.groups slot in
              let hops = ref 0 in
              Bitset.iter
                (fun m -> if m <> source then hops := !hops + dist.(m))
                (G.members_bitset st.groups slot);
              st.unicast_chunks <- st.unicast_chunks + 1;
              st.unicast_link_bytes <-
                st.unicast_link_bytes +. (bytes *. float_of_int !hops);
              log_event st ~ev "u"))
  | Stream.Depart { gid } ->
      st.departs <- st.departs + 1;
      (match st.tcam with
      | Some tc -> ignore (Tcam.remove_group tc ~group:gid)
      | None -> ());
      (match G.find st.groups ~gid with
      | Some slot ->
          (* A departed group's pending install must never land
             (SVC004): tombstone its queue entry in O(1). *)
          if G.in_pending st.groups slot then begin
            st.pending_live <- st.pending_live - 1;
            st.pq_tomb <- st.pq_tomb + 1
          end;
          ignore (G.remove st.groups ~gid)
      | None -> ());
      Hashtbl.replace st.departed gid ();
      log_event st ~ev "x");
  maybe_flush st ~now

(* The [k]-th smallest of [a] (from 0) in the order [Array.sort
   compare] gives floats ([Float.compare]): Hoare's selection, which
   reorders [a] in place in expected O(n).  The middle element as pivot
   keeps sorted and reversed runs linear. *)
let select a k =
  let lo = ref 0 and hi = ref (Array.length a - 1) in
  while !lo < !hi do
    let pivot = a.((!lo + !hi) / 2) in
    let i = ref !lo and j = ref !hi in
    while !i <= !j do
      while Float.compare a.(!i) pivot < 0 do
        incr i
      done;
      while Float.compare a.(!j) pivot > 0 do
        decr j
      done;
      if !i <= !j then begin
        let t = a.(!i) in
        a.(!i) <- a.(!j);
        a.(!j) <- t;
        incr i;
        decr j
      end
    done;
    (* [lo .. j] <= pivot <= [i .. hi], and whatever lies between
       equals the pivot. *)
    if k <= !j then hi := !j
    else if k >= !i then lo := !i
    else begin
      lo := k;
      hi := k
    end
  done;
  a.(k)

(* Nearest-rank percentile of the unsorted [a]; reorders [a]. *)
let percentile a p =
  match Array.length a with
  | 0 -> 0.0
  | n -> select a (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1))

(* Shard switches for the TCAM: by pod where the fabric has pods, by
   the node's index within its kind otherwise (leaf-spine spines and
   zoo cores carry pod = -1).  Pure storage partitioning: results are
   identical to a single shard. *)
let tcam_shards = 8

let tcam_shard_of graph sw =
  let nd = Graph.node graph sw in
  (if nd.Graph.pod >= 0 then nd.Graph.pod else nd.Graph.idx) mod tcam_shards

let run_body cfg trace fabric ~events stream =
  let graph = Fabric.graph fabric in
  let memo () = Memo.create ~capacity:cfg.cache_capacity ~width:(Graph.num_nodes graph) () in
  let st =
    {
      cfg;
      fabric;
      graph;
      tcam =
        (if cfg.capacity > 0 then
           Some
             (Tcam.create_sharded ~capacity:cfg.capacity ~policy:cfg.policy
                ~shards:tcam_shards ~shard_of:(tcam_shard_of graph))
         else None);
      groups = G.create ~width:(Graph.num_nodes graph) ();
      departed = Hashtbl.create 64;
      digest = digest_create ();
      dists = Hashtbl.create 64;
      trees = memo ();
      plans = memo ();
      bounds = memo ();
      pq = Array.make 64 0;
      pq_len = 0;
      pq_tomb = 0;
      pending_live = 0;
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
      plan_lat = Array.make 1024 0.0;
      plan_n = 0;
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
  let final_backlog = st.pending_live in
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
  let lat = Array.sub st.plan_lat 0 st.plan_n in
  let cache_hits = Memo.hits st.trees + Memo.hits st.plans + Memo.hits st.bounds in
  let cache_misses =
    Memo.misses st.trees + Memo.misses st.plans + Memo.misses st.bounds
  in
  Trace.plan_cache trace ~hits:cache_hits ~misses:cache_misses;
  let counts m = { hits = Memo.hits m; misses = Memo.misses m; entries = Memo.length m } in
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
      cache_hits;
      cache_misses;
      tree_memo = counts st.trees;
      plan_memo = counts st.plans;
      bound_memo = counts st.bounds;
      groups_live = G.live st.groups;
      plan_p50_s = percentile lat 0.50;
      plan_p99_s = percentile lat 0.99;
      plan_max_s =
        Array.fold_left
          (fun m x -> if Float.compare x m > 0 then x else m)
          (if Array.length lat = 0 then 0.0 else lat.(0))
          lat;
      events_per_sec =
        (if wall > 0.0 then float_of_int events /. wall else 0.0);
      wall_s = wall;
    }
  in
  let pending_gids =
    let acc = ref [] in
    for r = st.pq_len - 1 downto 0 do
      let gid = st.pq.(r) in
      match G.find st.groups ~gid with
      | Some slot when G.in_pending st.groups slot -> acc := gid :: !acc
      | _ -> ()
    done;
    !acc
  in
  {
    o_cfg = cfg;
    o_fabric = fabric;
    o_tcam = st.tcam;
    o_groups = st.groups;
    o_departed = st.departed;
    o_pending = pending_gids;
    o_slo = slo;
    o_fingerprint = digest_hex st.digest;
  }

let run ?(cfg = default_config) ?jobs ?(trace = Trace.null) fabric ~events
    stream =
  if events < 0 then invalid_arg "Service.run: events must be >= 0";
  (match jobs with
  | Some j when j < 1 -> invalid_arg "Service.run: jobs must be >= 1"
  | Some _ | None -> ());
  if cfg.batch < 1 then invalid_arg "Service.run: batch must be >= 1";
  if cfg.install_delay < 0.0 || not (Float.is_finite cfg.install_delay) then
    invalid_arg "Service.run: install_delay must be finite and >= 0";
  if cfg.cache_capacity < 1 then
    invalid_arg "Service.run: cache_capacity must be >= 1";
  (match cfg.budget with
  | Some b when b < 1 -> invalid_arg "Service.run: budget must be >= 1"
  | Some _ | None -> ());
  match cfg.gc_space_overhead with
  | None -> run_body cfg trace fabric ~events stream
  | Some o ->
      (* Million-group runs keep a ~100 Mw live heap; the default
         space_overhead (120) re-marks it constantly for little
         reclaim.  The knob trades heap slack for major-GC time during
         the run and never affects decisions (GC timing is invisible
         to the decision log), so fingerprints are unchanged. *)
      if o < 1 then invalid_arg "Service.run: gc_space_overhead must be >= 1";
      let prev = (Gc.get ()).Gc.space_overhead in
      Gc.set { (Gc.get ()) with Gc.space_overhead = o };
      Fun.protect
        ~finally:(fun () ->
          Gc.set { (Gc.get ()) with Gc.space_overhead = prev })
        (fun () -> run_body cfg trace fabric ~events stream)
