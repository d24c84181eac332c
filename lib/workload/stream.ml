open Peel_topology
module Rng = Peel_util.Rng
module Heap = Peel_util.Pairing_heap

type tenant = {
  rate : float;
  scale : int;
  bytes : float;
  hold : float;
  churn : float;
  sends : float;
  fragmentation : float;
}

let tenant ?(churn = 0.0) ?(sends = 0.0) ?(fragmentation = 0.0) ~rate ~scale
    ~bytes ~hold () =
  { rate; scale; bytes; hold; churn; sends; fragmentation }

type kind =
  | Create of Spec.group
  | Join of { gid : int; endpoint : int }
  | Leave of { gid : int; endpoint : int }
  | Send of { gid : int; bytes : float }
  | Depart of { gid : int }

type event = { ev_time : float; ev_seq : int; ev_kind : kind }

let kind_to_string = function
  | Create g -> Printf.sprintf "create[g%d]" g.Spec.g_id
  | Join { gid; endpoint } -> Printf.sprintf "join[g%d+%d]" gid endpoint
  | Leave { gid; endpoint } -> Printf.sprintf "leave[g%d-%d]" gid endpoint
  | Send { gid; _ } -> Printf.sprintf "send[g%d]" gid
  | Depart { gid } -> Printf.sprintf "depart[g%d]" gid

(* Pending timers are ints, [id lsl 2 lor kind]: the id is the
   tenant index for an arrival and the gid for the rest.  An unboxed
   payload costs no allocation per timer and keeps the timer queue
   out of the GC's remembered set. *)
let k_arrival = 0
let k_churn = 1
let k_send = 2
let k_depart = 3
let timer id kind = (id lsl 2) lor kind

(* Live-group state, in columns indexed by gid.  Gids are issued
   densely from 0, so the columns grow with gids issued (geometrically,
   from empty); a departed gid keeps its slot with [tenant = -1]. *)
type t = {
  s_fabric : Fabric.t;
  s_rng : Rng.t;
  s_tenants : tenant array;
  s_timers : Heap.t;
  mutable s_tenant : int array;  (* owning tenant; -1 once departed *)
  mutable s_source : int array;
  mutable s_departure : float array;
  mutable s_members : int list array;  (* ascending, always contains the source *)
  mutable s_live : int;
  mutable s_next_gid : int;
  mutable s_next_seq : int;
}

let validate_tenant fabric i t =
  let fail fmt = Printf.ksprintf invalid_arg fmt in
  let n = Fabric.num_endpoints fabric in
  if t.rate < 0.0 || not (Float.is_finite t.rate) then
    fail "Stream.create: tenant %d rate must be finite and >= 0" i;
  if t.scale < 2 || t.scale > n then
    fail "Stream.create: tenant %d scale must be in [2, #endpoints]" i;
  if t.bytes <= 0.0 || not (Float.is_finite t.bytes) then
    fail "Stream.create: tenant %d bytes must be positive" i;
  if t.hold <= 0.0 || not (Float.is_finite t.hold) then
    fail "Stream.create: tenant %d hold must be positive" i;
  if t.churn < 0.0 || not (Float.is_finite t.churn) then
    fail "Stream.create: tenant %d churn must be finite and >= 0" i;
  if t.sends < 0.0 || not (Float.is_finite t.sends) then
    fail "Stream.create: tenant %d sends must be finite and >= 0" i;
  if not (t.fragmentation >= 0.0 && t.fragmentation <= 1.0) then
    fail "Stream.create: tenant %d fragmentation in [0,1]" i

let create fabric rng ~tenants () =
  if tenants = [] then invalid_arg "Stream.create: no tenants";
  List.iteri (validate_tenant fabric) tenants;
  if not (List.exists (fun t -> t.rate > 0.0) tenants) then
    invalid_arg "Stream.create: every tenant rate is 0 — the stream is empty";
  let s =
    {
      s_fabric = fabric;
      s_rng = rng;
      s_tenants = Array.of_list tenants;
      s_timers = Heap.create ();
      s_tenant = [||];
      s_source = [||];
      s_departure = [||];
      s_members = [||];
      s_live = 0;
      s_next_gid = 0;
      s_next_seq = 0;
    }
  in
  (* First arrival per tenant, in tenant order — one shared RNG
     stream, draws strictly in event-processing order thereafter. *)
  Array.iteri
    (fun i t ->
      if t.rate > 0.0 then
        Heap.push s.s_timers
          (Rng.exponential s.s_rng ~mean:(1.0 /. t.rate))
          (timer i k_arrival))
    s.s_tenants;
  s

let is_live s gid = gid >= 0 && gid < s.s_next_gid && s.s_tenant.(gid) >= 0

let live_groups s =
  let rec collect gid acc =
    if gid < 0 then acc
    else collect (gid - 1) (if s.s_tenant.(gid) >= 0 then gid :: acc else acc)
  in
  collect (s.s_next_gid - 1) []

let live_count s = s.s_live

let live_members s ~gid =
  if is_live s gid then Some s.s_members.(gid) else None

(* Schedule a per-group Poisson follow-up, unless it would land after
   the group's departure (the departure timer then retires the group
   before the follow-up could fire). *)
let[@inline] reschedule s ~now ~gid ~mean kind =
  if mean > 0.0 then begin
    let at = now +. Rng.exponential s.s_rng ~mean in
    if at < s.s_departure.(gid) then Heap.push s.s_timers at (timer gid kind)
  end

let emit s ~time kind =
  let seq = s.s_next_seq in
  s.s_next_seq <- seq + 1;
  { ev_time = time; ev_seq = seq; ev_kind = kind }

(* Room for gid [gid] in every live-state column. *)
let ensure_gid s gid =
  let cap = Array.length s.s_tenant in
  if gid >= cap then begin
    let ncap = if cap = 0 then 16 else 2 * cap in
    let extend a fill =
      let b = Array.make ncap fill in
      Array.blit a 0 b 0 cap;
      b
    in
    s.s_tenant <- extend s.s_tenant (-1);
    s.s_source <- extend s.s_source 0;
    s.s_departure <- extend s.s_departure 0.0;
    s.s_members <- extend s.s_members []
  end

let do_create s ~now ti =
  let t = s.s_tenants.(ti) in
  (* Next arrival of this tenant's Poisson process first, so the
     tenant's interarrival draws are independent of the group's own
     membership draws below. *)
  Heap.push s.s_timers
    (now +. Rng.exponential s.s_rng ~mean:(1.0 /. t.rate))
    (timer ti k_arrival);
  let members =
    Spec.place s.s_fabric s.s_rng ~scale:t.scale
      ~fragmentation:t.fragmentation ()
  in
  let marr = Array.of_list members in
  let source = marr.(Rng.int s.s_rng (Array.length marr)) in
  let life = max 1e-9 (Rng.exponential s.s_rng ~mean:t.hold) in
  let gid = s.s_next_gid in
  let departure = now +. life in
  ensure_gid s gid;
  s.s_next_gid <- gid + 1;
  s.s_tenant.(gid) <- ti;
  s.s_source.(gid) <- source;
  s.s_departure.(gid) <- departure;
  s.s_members.(gid) <- members;
  s.s_live <- s.s_live + 1;
  Heap.push s.s_timers departure (timer gid k_depart);
  reschedule s ~now ~gid
    ~mean:(if t.churn > 0.0 then 1.0 /. t.churn else 0.0)
    k_churn;
  reschedule s ~now ~gid
    ~mean:(if t.sends > 0.0 then 1.0 /. t.sends else 0.0)
    k_send;
  let group =
    {
      Spec.g_id = gid;
      g_arrival = now;
      g_departure = departure;
      g_source = source;
      g_dests = List.filter (fun m -> m <> source) members;
      g_members = members;
      g_bytes = t.bytes;
    }
  in
  emit s ~time:now (Create group)

(* A churn tick: join a fresh endpoint or drop a non-source member.
   Groups at the minimum size (2) always join; a join that cannot find
   a free endpoint (the group spans the whole fabric) degrades to a
   leave.  All draws come from the shared stream in a fixed order. *)
let do_churn s ~now gid =
  let t = s.s_tenants.(s.s_tenant.(gid)) in
  reschedule s ~now ~gid ~mean:(1.0 /. t.churn) k_churn;
  let members = s.s_members.(gid) in
  let size = List.length members in
  let eps = Fabric.endpoints s.s_fabric in
  let n = Array.length eps in
  let want_join =
    if size <= 2 then true
    else if size >= n then false
    else Rng.bool s.s_rng
  in
  let try_join () =
    let rec find tries =
      if tries = 0 then None
      else
        let e = eps.(Rng.int s.s_rng n) in
        if List.mem e members then find (tries - 1) else Some e
    in
    find 64
  in
  let do_leave () =
    let source = s.s_source.(gid) in
    let dests = List.filter (fun m -> m <> source) members in
    let victim = List.nth dests (Rng.int s.s_rng (List.length dests)) in
    s.s_members.(gid) <- List.filter (fun m -> m <> victim) members;
    Some (emit s ~time:now (Leave { gid; endpoint = victim }))
  in
  if want_join then
    match try_join () with
    | Some e ->
        s.s_members.(gid) <- List.sort compare (e :: members);
        Some (emit s ~time:now (Join { gid; endpoint = e }))
    | None -> if size > 2 then do_leave () else None
  else do_leave ()

(* Follow-up timers are pushed only strictly before their group's
   departure ([reschedule]), so they always pop before its departure
   timer: a churn or send timer never finds its group departed.  The
   liveness checks below are defensive. *)
let rec next s =
  if Heap.is_empty s.s_timers then
    invalid_arg "Stream.next: stream exhausted (no live timers)";
  let now = Heap.min_prio s.s_timers in
  let code = Heap.pop_min s.s_timers in
  let id = code lsr 2 and kind = code land 3 in
  if kind = k_arrival then do_create s ~now id
  else if kind = k_depart then begin
    s.s_tenant.(id) <- -1;
    s.s_members.(id) <- [];
    s.s_live <- s.s_live - 1;
    emit s ~time:now (Depart { gid = id })
  end
  else if not (is_live s id) then next s
  else if kind = k_churn then
    match do_churn s ~now id with Some ev -> ev | None -> next s
  else begin
    let t = s.s_tenants.(s.s_tenant.(id)) in
    reschedule s ~now ~gid:id ~mean:(1.0 /. t.sends) k_send;
    emit s ~time:now (Send { gid = id; bytes = t.bytes })
  end

