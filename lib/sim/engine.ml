module Heap = Peel_util.Pairing_heap
module Cal = Peel_util.Calendar_queue

(* Two interchangeable event queues with the same (time, FIFO) total
   order: the SoA binary heap (best at the thousands-of-events scale)
   and the calendar queue (O(1) amortized, built for the 10^7+-event
   runs of k = 32/64 fabrics).  [`Auto] starts on the heap and migrates
   once the pending population shows the run is calendar-sized. *)
type queue = H of (unit -> unit) Heap.t | C of (unit -> unit) Cal.t

type t = {
  mutable now : float;
  mutable q : queue;
  auto : bool;
  mutable migrated : bool;
  mutable processed : int;
  trace : Trace.t;
  traced : bool;
      (* [Trace.enabled trace], latched at creation: [schedule] is the
         hottest call in the simulator, and with tracing off it must do
         no trace work at all — not even the queue-length read that
         feeds the queue-depth high-water mark. *)
}

(* Above this many pending events the calendar's O(1) push/pop was
   expected to beat the heap's O(log n) sifts.  The bench hold rows
   ([*_push_pop_*k_pending]: 1000 pop+push pairs with uniform
   increments) do not show it: the heap stays ahead at both 2^15 and
   2^18 pending.  Crossed only by the large-fabric runs. *)
let auto_threshold = 1 lsl 15

let env_policy () =
  match Sys.getenv_opt "PEEL_CALQUEUE" with
  | Some ("1" | "cal" | "calendar" | "on") -> `Calendar
  | Some ("0" | "heap" | "off") -> `Heap
  | Some _ | None -> `Auto

let create ?(trace = Trace.null) ?queue () =
  let policy = match queue with Some p -> p | None -> env_policy () in
  {
    now = 0.0;
    q = (match policy with `Calendar -> C (Cal.create ()) | `Heap | `Auto -> H (Heap.create ()));
    auto = (match policy with `Auto -> true | `Heap | `Calendar -> false);
    migrated = false;
    processed = 0;
    trace;
    traced = Trace.enabled trace;
  }

let now t = t.now

let queue_kind t = match t.q with H _ -> `Heap | C _ -> `Calendar

let q_len t = match t.q with H h -> Heap.length h | C c -> Cal.length c
let q_peek t = match t.q with H h -> Heap.peek h | C c -> Cal.peek c
let q_pop t = match t.q with H h -> Heap.pop h | C c -> Cal.pop c

(* Drain the heap in pop order into a fresh calendar: pushes arrive in
   (time, seq) order and receive fresh ascending seqs, so the total
   order — FIFO ties included — is preserved exactly. *)
let migrate t h =
  let c = Cal.create () in
  let continue = ref true in
  while !continue do
    match Heap.pop h with
    | Some (at, f) -> Cal.push c at f
    | None -> continue := false
  done;
  t.q <- C c;
  t.migrated <- true

let schedule t at f =
  if at < t.now then
    invalid_arg
      (Printf.sprintf "Engine.schedule: time %.9f is before now %.9f" at t.now);
  (match t.q with
  | H h ->
      Heap.push h at f;
      if t.auto && not t.migrated && Heap.length h > auto_threshold then
        migrate t h
  | C c -> Cal.push c at f);
  if t.traced then Trace.note_pending t.trace (q_len t)

let schedule_in t dt f = schedule t (t.now +. dt) f

let run ?until t =
  let stop = Option.value until ~default:infinity in
  let rec loop () =
    match q_peek t with
    | None -> ()
    | Some (at, _) when at > stop -> ()
    | Some _ ->
        (match q_pop t with
        | Some (at, f) ->
            t.now <- at;
            t.processed <- t.processed + 1;
            f ()
        | None -> ());
        loop ()
  in
  loop ();
  if t.traced then Trace.note_engine t.trace ~events:t.processed

let pending t = q_len t
let events_processed t = t.processed
