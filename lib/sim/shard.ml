(* Conservative pod-sharded parallel DES.  See shard.mli for the model;
   the invariants here are:

   - A directed link is reserved only by the shard owning its source
     node, so [free]/[busy] writes are per-location single-writer and
     the per-link reservation sequence is the global (time, key) order
     restricted to that link.
   - Every cross-shard successor crosses a boundary link, so its
     timestamp exceeds the window bound (Soa.shard's lookahead), and
     exchanging events only at barrier epochs is causally safe — SIM008
     audits exactly this.
   - All cross-domain data flows through barrier epochs (mutex-based,
     so pre-barrier plain writes happen-before post-barrier reads). *)

type plan = {
  p_links : Soa.links;
  p_shard : Soa.sharding;
  p_flows : Soa.flow array;
  p_ebits : int;  (* key bits of the edge field: edges < 2^p_ebits in every DAG *)
  p_cbits : int;  (* key bits of the chunk field: chunks < 2^p_cbits in every flow *)
}

(* An event's key packs (flow, chunk, edge) into power-of-two fields,
   flow highest.  Each field stays below its width, so the keys order
   like the triples do, and a shift and a mask decode each field. *)
let[@inline] key p ~flow ~chunk ~edge = (((flow lsl p.p_cbits) lor chunk) lsl p.p_ebits) lor edge

let plan ~links ~sharding flows =
  Array.iter
    (fun (f : Soa.flow) ->
      if f.Soa.f_chunks < 1 then invalid_arg "Shard.plan: f_chunks >= 1";
      if Array.length f.Soa.f_dags = 0 then invalid_arg "Shard.plan: flow without DAGs";
      if not (Float.is_finite f.Soa.f_arrival && f.Soa.f_arrival >= 0.0) then
        invalid_arg "Shard.plan: f_arrival must be finite and >= 0";
      (* A flow whose DAGs have no edge sends nothing, so its chunk
         size never reaches a link. *)
      if Soa.flow_max_edges f > 0
         && not (Float.is_finite f.Soa.f_chunk_bytes && f.Soa.f_chunk_bytes > 0.0)
      then invalid_arg "Shard.plan: f_chunk_bytes must be finite and > 0";
      Array.iter
        (fun d ->
          match Soa.validate_dag links d with
          | Ok () -> ()
          | Error m -> invalid_arg ("Shard.plan: bad DAG: " ^ m))
        f.Soa.f_dags)
    flows;
  let bits_for n = Peel_util.Bits.ceil_log2 (max 1 n) in
  let widest g = Array.fold_left (fun acc f -> max acc (g f)) 0 flows in
  let ebits = bits_for (widest Soa.flow_max_edges) in
  let cbits = bits_for (widest (fun (f : Soa.flow) -> f.Soa.f_chunks)) in
  if bits_for (Array.length flows) + cbits + ebits > 62 then
    invalid_arg "Shard.plan: a (flow, chunk, edge) key needs more than 62 bits";
  { p_links = links; p_shard = sharding; p_flows = flows; p_ebits = ebits; p_cbits = cbits }

type audit_record = {
  a_shard : int;
  a_window : int;
  a_bound : float;
  a_max_exec : float;
  a_min_in : float;
  a_events : int;
}

type result = {
  r_ccts : float array;
  r_events : int;
  r_makespan : float;
  r_busy : float array;
  r_fingerprint : int;
  r_windows : int;
  r_audit : audit_record array;
}

(* FNV-1a over the delivery tuple, xor-folded into the accumulator:
   xor keeps the fold order-insensitive, which is what lets shards
   fingerprint independently and still match the sequential run. *)
let fnv_prime = 0x100000001B3
let fnv_basis = 0x2545F4914F6CDD1D

let fnv h v = ((h lxor v) * fnv_prime) land max_int

let[@inline] fingerprint_delivery acc ~flow ~chunk ~node ~time =
  let tb = Int64.to_int (Int64.bits_of_float time) in
  acc lxor (fnv (fnv (fnv (fnv fnv_basis flow) chunk) node) tb)

(* ------------------------------------------------------------------ *)
(* Per-shard event queue: a flat binary heap over (time, key) with no
   insertion sequence — keys are globally unique and statically
   ordered, which is precisely what makes jobs-n deterministic.  Every
   (flow, chunk, edge) enters a queue at most once (a DAG edge has one
   parent or is a root), so the (time, key) pairs are distinct and any
   correct min-heap pops the same sequence.  Push and pop sift a hole:
   one store per level, and the entry lands once at the end.  Push is
   inlined so its time stays an unboxed float.                          *)
(* ------------------------------------------------------------------ *)

type queue = {
  mutable qp : float array;
  mutable qk : int array;
  mutable qn : int;
}

let q_create () = { qp = Array.make 256 0.0; qk = Array.make 256 0; qn = 0 }

let q_grow q =
  let ncap = 2 * Array.length q.qp in
  let qp = Array.make ncap 0.0 and qk = Array.make ncap 0 in
  Array.blit q.qp 0 qp 0 q.qn;
  Array.blit q.qk 0 qk 0 q.qn;
  q.qp <- qp;
  q.qk <- qk

let[@inline] q_push q t key =
  if q.qn = Array.length q.qp then q_grow q;
  let qp = q.qp and qk = q.qk in
  let i = ref q.qn in
  q.qn <- q.qn + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) lsr 1 in
    let pt = qp.(parent) in
    if t < pt || (t = pt && key < qk.(parent)) then begin
      qp.(!i) <- pt;
      qk.(!i) <- qk.(parent);
      i := parent
    end
    else continue := false
  done;
  qp.(!i) <- t;
  qk.(!i) <- key

(* Remove the minimum and return its key; its time is [q.qp.(0)],
   which the caller reads first.  Precondition: qn > 0. *)
let q_pop q =
  let qp = q.qp and qk = q.qk in
  let top = qk.(0) in
  let n = q.qn - 1 in
  q.qn <- n;
  if n > 0 then begin
    let t = qp.(n) and key = qk.(n) in
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= n then continue := false
      else begin
        let r = l + 1 in
        let c =
          if r < n && (qp.(r) < qp.(l) || (qp.(r) = qp.(l) && qk.(r) < qk.(l))) then r
          else l
        in
        let ct = qp.(c) in
        if ct < t || (ct = t && qk.(c) < key) then begin
          qp.(!i) <- ct;
          qk.(!i) <- qk.(c);
          i := c
        end
        else continue := false
      end
    done;
    qp.(!i) <- t;
    qk.(!i) <- key
  end;
  top

(* Cross-shard mailboxes: written by the source shard during a window,
   drained (and reset) by the destination shard at the closing barrier. *)
type outbox = {
  mutable ot : float array;
  mutable okey : int array;
  mutable on_ : int;
}

let o_create () = { ot = Array.make 64 0.0; okey = Array.make 64 0; on_ = 0 }

let o_push o t key =
  if o.on_ >= Array.length o.ot then begin
    let ncap = 2 * Array.length o.ot in
    let ot = Array.make ncap 0.0 and okey = Array.make ncap 0 in
    Array.blit o.ot 0 ot 0 o.on_;
    Array.blit o.okey 0 okey 0 o.on_;
    o.ot <- ot;
    o.okey <- okey
  end;
  o.ot.(o.on_) <- t;
  o.okey.(o.on_) <- key;
  o.on_ <- o.on_ + 1

(* ------------------------------------------------------------------ *)
(* Barrier: blocking (mutex + condvar) rather than spinning, so
   oversubscribed runs (more shards than cores) degrade gracefully.    *)
(* ------------------------------------------------------------------ *)

type barrier = {
  b_mutex : Mutex.t;
  b_cond : Condition.t;
  b_parties : int;
  mutable b_count : int;
  mutable b_gen : int;
}

let b_create parties =
  { b_mutex = Mutex.create (); b_cond = Condition.create (); b_parties = parties;
    b_count = 0; b_gen = 0 }

let b_wait b =
  Mutex.lock b.b_mutex;
  let gen = b.b_gen in
  b.b_count <- b.b_count + 1;
  if b.b_count = b.b_parties then begin
    b.b_count <- 0;
    b.b_gen <- b.b_gen + 1;
    Condition.broadcast b.b_cond
  end
  else
    while b.b_gen = gen do
      Condition.wait b.b_cond b.b_mutex
    done;
  Mutex.unlock b.b_mutex

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

type ctx = {
  c_plan : plan;
  c_free : float array;          (* per link; single-writer by owner *)
  c_busy : float array;
  c_queues : queue array;        (* per shard *)
  c_out : outbox array array;    (* c_out.(src).(dst) *)
  c_mins : float array;          (* per shard: local queue minimum *)
  c_counts : int array array;    (* c_counts.(shard).(flow) deliveries *)
  c_lasts : float array array;   (* c_lasts.(shard).(flow) last delivery *)
  c_fps : int array;             (* per-shard fingerprint accumulator *)
  c_evs : int array;             (* per-shard events executed *)
  c_mks : float array;           (* per-shard makespan *)
  c_wins : int array;            (* per-shard window count *)
  c_barrier : barrier;
  c_audit : bool;
  c_audits : audit_record list ref array;  (* per shard, newest first *)
}

(* Inlined into [worker], so [t] and every time derived from it stay
   unboxed floats: an event allocates nothing. *)
let[@inline] exec ctx me q t key =
  let p = ctx.c_plan in
  let e = key land ((1 lsl p.p_ebits) - 1) in
  let c = (key lsr p.p_ebits) land ((1 lsl p.p_cbits) - 1) in
  let fi = key lsr (p.p_ebits + p.p_cbits) in
  let f = p.p_flows.(fi) in
  let d = f.Soa.f_dags.(c mod Array.length f.Soa.f_dags) in
  let lid = d.Soa.d_link.(e) in
  (* Same expressions, same order as Link_state.reserve + arrival:
     identical rounding keeps parity with the sequential engine.  Times
     are finite and >= 0 (Shard.plan checks arrivals), so the plain
     comparison picks what [Float.max] would. *)
  let free = ctx.c_free.(lid) in
  let start = if t > free then t else free in
  let tx = f.Soa.f_chunk_bytes /. p.p_links.Soa.l_bw.(lid) in
  let finish = start +. tx in
  ctx.c_free.(lid) <- finish;
  ctx.c_busy.(lid) <- ctx.c_busy.(lid) +. tx;
  let arr = finish +. p.p_links.Soa.l_lat.(lid) in
  if arr > ctx.c_mks.(me) then ctx.c_mks.(me) <- arr;
  let dst = d.Soa.d_deliver.(e) in
  if dst >= 0 then begin
    ctx.c_counts.(me).(fi) <- ctx.c_counts.(me).(fi) + 1;
    if arr > ctx.c_lasts.(me).(fi) then ctx.c_lasts.(me).(fi) <- arr;
    ctx.c_fps.(me) <-
      fingerprint_delivery ctx.c_fps.(me) ~flow:f.Soa.f_id ~chunk:c ~node:dst
        ~time:arr
  end;
  let base = key lxor e in
  for i = d.Soa.d_succ_off.(e) to d.Soa.d_succ_off.(e + 1) - 1 do
    let e' = d.Soa.d_succ.(i) in
    let owner = p.p_shard.Soa.s_of_link.(d.Soa.d_link.(e')) in
    if owner = me then q_push q arr (base lor e')
    else o_push ctx.c_out.(me).(owner) arr (base lor e')
  done;
  ctx.c_evs.(me) <- ctx.c_evs.(me) + 1

let worker ctx me =
  let p = ctx.c_plan in
  let n = p.p_shard.Soa.s_n in
  let look = p.p_shard.Soa.s_lookahead in
  let q = ctx.c_queues.(me) in
  let continue = ref true in
  while !continue do
    ctx.c_mins.(me) <- (if q.qn > 0 then q.qp.(0) else infinity);
    b_wait ctx.c_barrier;
    (* Every shard folds the same published array, so every shard takes
       the same branch — barrier counts stay aligned. *)
    let w = Array.fold_left Float.min infinity ctx.c_mins in
    if w = infinity then continue := false
    else begin
      let bound = if n = 1 then infinity else w +. look in
      let max_exec = ref neg_infinity in
      let evs0 = ctx.c_evs.(me) in
      while q.qn > 0 && q.qp.(0) < bound do
        let t = q.qp.(0) in
        let k = q_pop q in
        max_exec := t;
        exec ctx me q t k
      done;
      b_wait ctx.c_barrier;
      let min_in = ref infinity in
      for s = 0 to n - 1 do
        if s <> me then begin
          let o = ctx.c_out.(s).(me) in
          for i = 0 to o.on_ - 1 do
            if o.ot.(i) < !min_in then min_in := o.ot.(i);
            q_push q o.ot.(i) o.okey.(i)
          done;
          o.on_ <- 0
        end
      done;
      if ctx.c_audit then
        ctx.c_audits.(me) :=
          {
            a_shard = me;
            a_window = ctx.c_wins.(me);
            a_bound = bound;
            a_max_exec = !max_exec;
            a_min_in = !min_in;
            a_events = ctx.c_evs.(me) - evs0;
          }
          :: !(ctx.c_audits.(me));
      ctx.c_wins.(me) <- ctx.c_wins.(me) + 1;
      b_wait ctx.c_barrier
    end
  done

let run ?(audit = false) p =
  let n = p.p_shard.Soa.s_n in
  let nflows = Array.length p.p_flows in
  let ctx =
    {
      c_plan = p;
      c_free = Array.make p.p_links.Soa.l_n 0.0;
      c_busy = Array.make p.p_links.Soa.l_n 0.0;
      c_queues = Array.init n (fun _ -> q_create ());
      c_out = Array.init n (fun _ -> Array.init n (fun _ -> o_create ()));
      c_mins = Array.make n infinity;
      c_counts = Array.init n (fun _ -> Array.make nflows 0);
      c_lasts = Array.init n (fun _ -> Array.make nflows neg_infinity);
      c_fps = Array.make n 0;
      c_evs = Array.make n 0;
      c_mks = Array.make n 0.0;
      c_wins = Array.make n 0;
      c_barrier = b_create n;
      c_audit = audit;
      c_audits = Array.init n (fun _ -> ref []);
    }
  in
  (* Seed every chunk's root edges into their owners' queues. *)
  Array.iteri
    (fun fi (f : Soa.flow) ->
      let ndags = Array.length f.Soa.f_dags in
      for c = 0 to f.Soa.f_chunks - 1 do
        let d = f.Soa.f_dags.(c mod ndags) in
        Array.iter
          (fun r ->
            let owner = p.p_shard.Soa.s_of_link.(d.Soa.d_link.(r)) in
            q_push ctx.c_queues.(owner) f.Soa.f_arrival (key p ~flow:fi ~chunk:c ~edge:r))
          d.Soa.d_roots
      done)
    p.p_flows;
  if n = 1 then worker ctx 0
  else begin
    let doms =
      Array.init (n - 1) (fun i -> Domain.spawn (fun () -> worker ctx (i + 1)))
    in
    worker ctx 0;
    Array.iter Domain.join doms
  end;
  (* Merge the per-shard reductions (all order-insensitive). *)
  let ccts = Array.make nflows 0.0 in
  Array.iteri
    (fun fi (f : Soa.flow) ->
      let count = ref 0 and last = ref neg_infinity in
      for s = 0 to n - 1 do
        count := !count + ctx.c_counts.(s).(fi);
        if ctx.c_lasts.(s).(fi) > !last then last := ctx.c_lasts.(s).(fi)
      done;
      if !count <> f.Soa.f_expected then
        failwith
          (Printf.sprintf
             "Shard.run: flow %d delivered %d of %d chunks" f.Soa.f_id !count
             f.Soa.f_expected);
      ccts.(fi) <- (if f.Soa.f_expected = 0 then 0.0 else !last -. f.Soa.f_arrival))
    p.p_flows;
  let events = Array.fold_left ( + ) 0 ctx.c_evs in
  let makespan =
    Array.fold_left
      (fun acc (f : Soa.flow) -> Float.max acc f.Soa.f_arrival)
      (Array.fold_left Float.max 0.0 ctx.c_mks)
      p.p_flows
  in
  let fingerprint = Array.fold_left ( lxor ) 0 ctx.c_fps in
  let audit_records =
    Array.to_list ctx.c_audits
    |> List.concat_map (fun l -> List.rev !l)
    |> Array.of_list
  in
  {
    r_ccts = ccts;
    r_events = events;
    r_makespan = makespan;
    r_busy = ctx.c_busy;
    r_fingerprint = fingerprint;
    r_windows = ctx.c_wins.(0);
    r_audit = audit_records;
  }
