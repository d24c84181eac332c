module Json = Peel_util.Json

type level = Off | Counters | Full

type kind =
  | Reserve of { link : int; bytes : float; queue_delay : float; backlog : float }
  | Ecn_mark of { link : int; flow : int; chunk : int }
  | Delivery of { node : int; flow : int; chunk : int }
  | Release of { flow : int; chunk : int; rate : float }
  | Cnp of { flow : int }
  | Rate_cut of { flow : int; rate : float }
  | Guard_hold of { flow : int }
  | Drop of { link : int }
  | Retransmit of { flow : int; node : int }
  | Link_fail of { link : int }
  | Link_recover of { link : int }
  | Replan of { flow : int; cost : int }
  | Rule_install of { group : int; switch : int; rules : int }
  | Refine of { group : int; cost : int }
  | Evict of { group : int; switch : int }

type event = { time : float; kind : kind }

type counters = {
  mutable reservations : int;
  mutable bytes_reserved : float;
  mutable ecn_marks : int;
  mutable deliveries : int;
  mutable releases : int;
  mutable cnps : int;
  mutable rate_cuts : int;
  mutable guard_holds : int;
  mutable drops : int;
  mutable retransmits : int;
  mutable link_fails : int;
  mutable link_recovers : int;
  mutable replans : int;
  mutable rule_installs : int;
  mutable refines : int;
  mutable evictions : int;
  mutable plan_cache_hits : int;
  mutable plan_cache_misses : int;
  mutable engine_events : int;
  mutable engine_max_pending : int;
}

type t = {
  level : level;
  sample_every : int;
  c : counters;
  mutable buf : event array;
  mutable n : int;
  mutable reserve_seen : int;
  mutable skipped : int;
}

let zero_counters () =
  {
    reservations = 0;
    bytes_reserved = 0.0;
    ecn_marks = 0;
    deliveries = 0;
    releases = 0;
    cnps = 0;
    rate_cuts = 0;
    guard_holds = 0;
    drops = 0;
    retransmits = 0;
    link_fails = 0;
    link_recovers = 0;
    replans = 0;
    rule_installs = 0;
    refines = 0;
    evictions = 0;
    plan_cache_hits = 0;
    plan_cache_misses = 0;
    engine_events = 0;
    engine_max_pending = 0;
  }

let create ?(level = Full) ?(sample = 1) () =
  if sample < 1 then invalid_arg "Trace.create: sample >= 1";
  {
    level;
    sample_every = sample;
    c = zero_counters ();
    buf = [||];
    n = 0;
    reserve_seen = 0;
    skipped = 0;
  }

let null = create ~level:Off ()

let enabled t = t.level <> Off
let level t = t.level
let counters t = t.c
let num_events t = t.n
let sampled_out t = t.skipped
let events t = Array.sub t.buf 0 t.n

let push t ev =
  if t.n = Array.length t.buf then begin
    let cap = max 1024 (2 * Array.length t.buf) in
    let buf = Array.make cap ev in
    Array.blit t.buf 0 buf 0 t.n;
    t.buf <- buf
  end;
  t.buf.(t.n) <- ev;
  t.n <- t.n + 1

(* ------------------------------------------------------------------ *)
(* Emitters: check the level first so an Off trace costs one branch.   *)
(* ------------------------------------------------------------------ *)

let reserve t ~time ~link ~bytes ~queue_delay ~backlog =
  if t.level <> Off then begin
    t.c.reservations <- t.c.reservations + 1;
    t.c.bytes_reserved <- t.c.bytes_reserved +. bytes;
    if t.level = Full then begin
      t.reserve_seen <- t.reserve_seen + 1;
      if (t.reserve_seen - 1) mod t.sample_every = 0 then
        push t { time; kind = Reserve { link; bytes; queue_delay; backlog } }
      else t.skipped <- t.skipped + 1
    end
  end

let ecn_mark t ~time ~link ~flow ~chunk =
  if t.level <> Off then begin
    t.c.ecn_marks <- t.c.ecn_marks + 1;
    if t.level = Full then push t { time; kind = Ecn_mark { link; flow; chunk } }
  end

let delivery t ~time ~node ~flow ~chunk =
  if t.level <> Off then begin
    t.c.deliveries <- t.c.deliveries + 1;
    if t.level = Full then push t { time; kind = Delivery { node; flow; chunk } }
  end

let release t ~time ~flow ~chunk ~rate =
  if t.level <> Off then begin
    t.c.releases <- t.c.releases + 1;
    if t.level = Full then push t { time; kind = Release { flow; chunk; rate } }
  end

let cnp t ~time ~flow =
  if t.level <> Off then begin
    t.c.cnps <- t.c.cnps + 1;
    if t.level = Full then push t { time; kind = Cnp { flow } }
  end

let rate_cut t ~time ~flow ~rate =
  if t.level <> Off then begin
    t.c.rate_cuts <- t.c.rate_cuts + 1;
    if t.level = Full then push t { time; kind = Rate_cut { flow; rate } }
  end

let guard_hold t ~time ~flow =
  if t.level <> Off then begin
    t.c.guard_holds <- t.c.guard_holds + 1;
    if t.level = Full then push t { time; kind = Guard_hold { flow } }
  end

let drop t ~time ~link =
  if t.level <> Off then begin
    t.c.drops <- t.c.drops + 1;
    if t.level = Full then push t { time; kind = Drop { link } }
  end

let retransmit t ~time ~flow ~node =
  if t.level <> Off then begin
    t.c.retransmits <- t.c.retransmits + 1;
    if t.level = Full then push t { time; kind = Retransmit { flow; node } }
  end

let link_fail t ~time ~link =
  if t.level <> Off then begin
    t.c.link_fails <- t.c.link_fails + 1;
    if t.level = Full then push t { time; kind = Link_fail { link } }
  end

let link_recover t ~time ~link =
  if t.level <> Off then begin
    t.c.link_recovers <- t.c.link_recovers + 1;
    if t.level = Full then push t { time; kind = Link_recover { link } }
  end

let replan t ~time ~flow ~cost =
  if t.level <> Off then begin
    t.c.replans <- t.c.replans + 1;
    if t.level = Full then push t { time; kind = Replan { flow; cost } }
  end

let rule_install t ~time ~group ~switch ~rules =
  if t.level <> Off then begin
    t.c.rule_installs <- t.c.rule_installs + 1;
    if t.level = Full then push t { time; kind = Rule_install { group; switch; rules } }
  end

let refine t ~time ~group ~cost =
  if t.level <> Off then begin
    t.c.refines <- t.c.refines + 1;
    if t.level = Full then push t { time; kind = Refine { group; cost } }
  end

let evict t ~time ~group ~switch =
  if t.level <> Off then begin
    t.c.evictions <- t.c.evictions + 1;
    if t.level = Full then push t { time; kind = Evict { group; switch } }
  end

let plan_cache t ~hits ~misses =
  if t.level <> Off then begin
    t.c.plan_cache_hits <- t.c.plan_cache_hits + hits;
    t.c.plan_cache_misses <- t.c.plan_cache_misses + misses
  end

let note_engine t ~events =
  if t.level <> Off && events > t.c.engine_events then
    t.c.engine_events <- events

let note_pending t depth =
  if t.level <> Off && depth > t.c.engine_max_pending then
    t.c.engine_max_pending <- depth

(* ------------------------------------------------------------------ *)
(* Aggregation                                                         *)
(* ------------------------------------------------------------------ *)

type link_stats = {
  l_reservations : int;
  l_bytes : float;
  l_ecn_marks : int;
  l_max_backlog : float;
  l_sum_queue_delay : float;
}

let link_stats t ~nlinks =
  let res = Array.make nlinks 0 in
  let bytes = Array.make nlinks 0.0 in
  let marks = Array.make nlinks 0 in
  let maxb = Array.make nlinks 0.0 in
  let sumq = Array.make nlinks 0.0 in
  for i = 0 to t.n - 1 do
    match t.buf.(i).kind with
    | Reserve { link; bytes = b; queue_delay; backlog } when link < nlinks ->
        res.(link) <- res.(link) + 1;
        bytes.(link) <- bytes.(link) +. b;
        sumq.(link) <- sumq.(link) +. queue_delay;
        if backlog > maxb.(link) then maxb.(link) <- backlog
    | Ecn_mark { link; _ } when link < nlinks -> marks.(link) <- marks.(link) + 1
    | _ -> ()
  done;
  Array.init nlinks (fun l ->
      {
        l_reservations = res.(l);
        l_bytes = bytes.(l);
        l_ecn_marks = marks.(l);
        l_max_backlog = maxb.(l);
        l_sum_queue_delay = sumq.(l);
      })

type flow_stats = {
  f_flow : int;
  f_releases : int;
  f_deliveries : int;
  f_cnps : int;
  f_rate_cuts : int;
  f_guard_holds : int;
  f_retransmits : int;
  f_replans : int;
  f_first_delivery : float;
  f_last_delivery : float;
  f_mean_chunk_latency : float;
  f_max_chunk_latency : float;
}

type flow_acc = {
  mutable releases : int;
  mutable deliveries : int;
  mutable cnps : int;
  mutable rate_cuts : int;
  mutable guard_holds : int;
  mutable retransmits : int;
  mutable replans : int;
  mutable first : float;
  mutable last : float;
  mutable lat_sum : float;
  mutable lat_max : float;
  mutable lat_n : int;
}

let flow_stats t =
  let accs : (int, flow_acc) Hashtbl.t = Hashtbl.create 16 in
  let acc flow =
    match Hashtbl.find_opt accs flow with
    | Some a -> a
    | None ->
        let a =
          {
            releases = 0; deliveries = 0; cnps = 0; rate_cuts = 0;
            guard_holds = 0; retransmits = 0; replans = 0; first = infinity;
            last = neg_infinity; lat_sum = 0.0; lat_max = 0.0; lat_n = 0;
          }
        in
        Hashtbl.add accs flow a;
        a
  in
  (* First release time per (flow, chunk), for latency pairing. *)
  let released : (int * int, float) Hashtbl.t = Hashtbl.create 64 in
  for i = 0 to t.n - 1 do
    let ev = t.buf.(i) in
    match ev.kind with
    | Release { flow; chunk; _ } when flow >= 0 ->
        let a = acc flow in
        a.releases <- a.releases + 1;
        if not (Hashtbl.mem released (flow, chunk)) then
          Hashtbl.add released (flow, chunk) ev.time
    | Delivery { flow; chunk; _ } when flow >= 0 ->
        let a = acc flow in
        a.deliveries <- a.deliveries + 1;
        if ev.time < a.first then a.first <- ev.time;
        if ev.time > a.last then a.last <- ev.time;
        (match Hashtbl.find_opt released (flow, chunk) with
        | Some t0 ->
            let lat = ev.time -. t0 in
            a.lat_sum <- a.lat_sum +. lat;
            if lat > a.lat_max then a.lat_max <- lat;
            a.lat_n <- a.lat_n + 1
        | None -> ())
    | Cnp { flow } when flow >= 0 ->
        let a = acc flow in
        a.cnps <- a.cnps + 1
    | Rate_cut { flow; _ } when flow >= 0 ->
        let a = acc flow in
        a.rate_cuts <- a.rate_cuts + 1
    | Guard_hold { flow } when flow >= 0 ->
        let a = acc flow in
        a.guard_holds <- a.guard_holds + 1
    | Retransmit { flow; _ } when flow >= 0 ->
        let a = acc flow in
        a.retransmits <- a.retransmits + 1
    | Replan { flow; _ } when flow >= 0 ->
        let a = acc flow in
        a.replans <- a.replans + 1
    | _ -> ()
  done;
  Hashtbl.fold (fun flow a l -> (flow, a) :: l) accs []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.map (fun (flow, a) ->
         {
           f_flow = flow;
           f_releases = a.releases;
           f_deliveries = a.deliveries;
           f_cnps = a.cnps;
           f_rate_cuts = a.rate_cuts;
           f_guard_holds = a.guard_holds;
           f_retransmits = a.retransmits;
           f_replans = a.replans;
           f_first_delivery = (if a.deliveries = 0 then nan else a.first);
           f_last_delivery = (if a.deliveries = 0 then nan else a.last);
           f_mean_chunk_latency =
             (if a.lat_n = 0 then nan else a.lat_sum /. float_of_int a.lat_n);
           f_max_chunk_latency = (if a.lat_n = 0 then nan else a.lat_max);
         })

(* ------------------------------------------------------------------ *)
(* Export                                                              *)
(* ------------------------------------------------------------------ *)

let counters_to_json t =
  let c = t.c in
  Json.Obj
    [
      ("reservations", Json.int c.reservations);
      ("bytes_reserved", Json.num c.bytes_reserved);
      ("ecn_marks", Json.int c.ecn_marks);
      ("deliveries", Json.int c.deliveries);
      ("releases", Json.int c.releases);
      ("cnps", Json.int c.cnps);
      ("rate_cuts", Json.int c.rate_cuts);
      ("guard_holds", Json.int c.guard_holds);
      ("drops", Json.int c.drops);
      ("retransmits", Json.int c.retransmits);
      ("link_fails", Json.int c.link_fails);
      ("link_recovers", Json.int c.link_recovers);
      ("replans", Json.int c.replans);
      ("rule_installs", Json.int c.rule_installs);
      ("refines", Json.int c.refines);
      ("evictions", Json.int c.evictions);
      ("plan_cache_hits", Json.int c.plan_cache_hits);
      ("plan_cache_misses", Json.int c.plan_cache_misses);
      ("engine_events", Json.int c.engine_events);
      ("engine_max_pending", Json.int c.engine_max_pending);
      ("sampled_out", Json.int t.skipped);
    ]

let kind_name = function
  | Reserve _ -> "reserve"
  | Ecn_mark _ -> "ecn_mark"
  | Delivery _ -> "delivery"
  | Release _ -> "release"
  | Cnp _ -> "cnp"
  | Rate_cut _ -> "rate_cut"
  | Guard_hold _ -> "guard_hold"
  | Drop _ -> "drop"
  | Retransmit _ -> "retransmit"
  | Link_fail _ -> "link_fail"
  | Link_recover _ -> "link_recover"
  | Replan _ -> "replan"
  | Rule_install _ -> "rule_install"
  | Refine _ -> "refine"
  | Evict _ -> "evict"

let event_to_json ev =
  let base = [ ("t", Json.num ev.time); ("kind", Json.str (kind_name ev.kind)) ] in
  let rest =
    match ev.kind with
    | Reserve { link; bytes; queue_delay; backlog } ->
        [
          ("link", Json.int link); ("bytes", Json.num bytes);
          ("queue_delay", Json.num queue_delay); ("backlog", Json.num backlog);
        ]
    | Ecn_mark { link; flow; chunk } ->
        [ ("link", Json.int link); ("flow", Json.int flow); ("chunk", Json.int chunk) ]
    | Delivery { node; flow; chunk } ->
        [ ("node", Json.int node); ("flow", Json.int flow); ("chunk", Json.int chunk) ]
    | Release { flow; chunk; rate } ->
        [ ("flow", Json.int flow); ("chunk", Json.int chunk); ("rate", Json.num rate) ]
    | Cnp { flow } -> [ ("flow", Json.int flow) ]
    | Rate_cut { flow; rate } -> [ ("flow", Json.int flow); ("rate", Json.num rate) ]
    | Guard_hold { flow } -> [ ("flow", Json.int flow) ]
    | Drop { link } -> [ ("link", Json.int link) ]
    | Retransmit { flow; node } ->
        [ ("flow", Json.int flow); ("node", Json.int node) ]
    | Link_fail { link } -> [ ("link", Json.int link) ]
    | Link_recover { link } -> [ ("link", Json.int link) ]
    | Replan { flow; cost } -> [ ("flow", Json.int flow); ("cost", Json.int cost) ]
    | Rule_install { group; switch; rules } ->
        [ ("group", Json.int group); ("switch", Json.int switch);
          ("rules", Json.int rules) ]
    | Refine { group; cost } ->
        [ ("group", Json.int group); ("cost", Json.int cost) ]
    | Evict { group; switch } ->
        [ ("group", Json.int group); ("switch", Json.int switch) ]
  in
  Json.Obj (base @ rest)

let events_to_json t =
  let rec go i acc =
    if i < 0 then acc else go (i - 1) (event_to_json t.buf.(i) :: acc)
  in
  Json.Arr (go (t.n - 1) [])

let csv_header = "time,kind,link,node,flow,chunk,bytes,queue_delay,backlog,rate"

let events_csv t =
  let b = Buffer.create (64 * (t.n + 1)) in
  Buffer.add_string b csv_header;
  Buffer.add_char b '\n';
  let fi = string_of_int in
  let ff x = Printf.sprintf "%.9g" x in
  for i = 0 to t.n - 1 do
    let ev = t.buf.(i) in
    (* columns: link node flow chunk bytes queue_delay backlog rate *)
    let cols =
      match ev.kind with
      | Reserve { link; bytes; queue_delay; backlog } ->
          [ fi link; ""; ""; ""; ff bytes; ff queue_delay; ff backlog; "" ]
      | Ecn_mark { link; flow; chunk } ->
          [ fi link; ""; fi flow; fi chunk; ""; ""; ""; "" ]
      | Delivery { node; flow; chunk } ->
          [ ""; fi node; fi flow; fi chunk; ""; ""; ""; "" ]
      | Release { flow; chunk; rate } ->
          [ ""; ""; fi flow; fi chunk; ""; ""; ""; ff rate ]
      | Cnp { flow } -> [ ""; ""; fi flow; ""; ""; ""; ""; "" ]
      | Rate_cut { flow; rate } -> [ ""; ""; fi flow; ""; ""; ""; ""; ff rate ]
      | Guard_hold { flow } -> [ ""; ""; fi flow; ""; ""; ""; ""; "" ]
      | Drop { link } -> [ fi link; ""; ""; ""; ""; ""; ""; "" ]
      | Retransmit { flow; node } ->
          [ ""; fi node; fi flow; ""; ""; ""; ""; "" ]
      | Link_fail { link } | Link_recover { link } ->
          [ fi link; ""; ""; ""; ""; ""; ""; "" ]
      | Replan { flow; _ } -> [ ""; ""; fi flow; ""; ""; ""; ""; "" ]
      (* Control-plane events reuse the fixed header: switch -> node,
         group -> flow, rules -> chunk. *)
      | Rule_install { group; switch; rules } ->
          [ ""; fi switch; fi group; fi rules; ""; ""; ""; "" ]
      | Refine { group; _ } -> [ ""; ""; fi group; ""; ""; ""; ""; "" ]
      | Evict { group; switch } ->
          [ ""; fi switch; fi group; ""; ""; ""; ""; "" ]
    in
    Buffer.add_string b (ff ev.time);
    Buffer.add_char b ',';
    Buffer.add_string b (kind_name ev.kind);
    List.iter
      (fun c ->
        Buffer.add_char b ',';
        Buffer.add_string b c)
      cols;
    Buffer.add_char b '\n'
  done;
  Buffer.contents b
