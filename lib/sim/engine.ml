module Heap = Peel_util.Pairing_heap

type t = {
  mutable now : float;
  q : Heap.t;  (* slot ids, by (time, scheduling order) *)
  mutable slots : (unit -> unit) array;  (* a queued slot's thunk *)
  mutable free : int array;  (* stack of free slot ids *)
  mutable nfree : int;
  mutable processed : int;
  trace : Trace.t;
  traced : bool;
      (* [Trace.enabled trace], latched at creation: [schedule] is the
         hottest call in the simulator, and with tracing off it must do
         no trace work at all — not even the queue-length read that
         feeds the queue-depth high-water mark. *)
}

let create ?(trace = Trace.null) () =
  {
    now = 0.0;
    q = Heap.create ();
    slots = [||];
    free = [||];
    nfree = 0;
    processed = 0;
    trace;
    traced = Trace.enabled trace;
  }

let now t = t.now

(* A freed slot's thunk, so the one it held can be collected. *)
let vacant () = ()

(* Every slot is queued: double the table and stack the new ids but
   the first, which is returned. *)
let fresh_slot t =
  let cap = Array.length t.slots in
  let ncap = if cap = 0 then 16 else 2 * cap in
  let slots = Array.make ncap vacant in
  Array.blit t.slots 0 slots 0 cap;
  t.slots <- slots;
  t.free <- Array.init ncap (fun i -> ncap - 1 - i);
  t.nfree <- ncap - cap - 1;
  cap

let schedule t at f =
  if not (at >= t.now) then
    invalid_arg
      (Printf.sprintf "Engine.schedule: time %.9f is NaN or before now %.9f" at
         t.now);
  let slot =
    if t.nfree = 0 then fresh_slot t
    else begin
      t.nfree <- t.nfree - 1;
      Array.unsafe_get t.free t.nfree
    end
  in
  Array.unsafe_set t.slots slot f;
  Heap.push t.q at slot;
  if t.traced then Trace.note_pending t.trace (Heap.length t.q)

let schedule_in t dt f = schedule t (t.now +. dt) f

let run ?until t =
  let stop = Option.value until ~default:infinity in
  let q = t.q in
  let continue = ref true in
  while !continue do
    if Heap.is_empty q then continue := false
    else begin
      let at = Heap.min_prio q in
      if at > stop then continue := false
      else begin
        let slot = Heap.pop_min q in
        let f = Array.unsafe_get t.slots slot in
        Array.unsafe_set t.slots slot vacant;
        Array.unsafe_set t.free t.nfree slot;
        t.nfree <- t.nfree + 1;
        t.now <- at;
        t.processed <- t.processed + 1;
        f ()
      end
    end
  done;
  if t.traced then Trace.note_engine t.trace ~events:t.processed

let pending t = Heap.length t.q
let events_processed t = t.processed
