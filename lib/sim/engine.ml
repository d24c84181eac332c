module Heap = Peel_util.Pairing_heap

type t = {
  mutable now : float;
  q : (unit -> unit) Heap.t;
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
    processed = 0;
    trace;
    traced = Trace.enabled trace;
  }

let now t = t.now

let schedule t at f =
  if at < t.now then
    invalid_arg
      (Printf.sprintf "Engine.schedule: time %.9f is before now %.9f" at t.now);
  Heap.push t.q at f;
  if t.traced then Trace.note_pending t.trace (Heap.length t.q)

let schedule_in t dt f = schedule t (t.now +. dt) f

let run ?until t =
  let stop = Option.value until ~default:infinity in
  let rec loop () =
    match Heap.peek t.q with
    | None -> ()
    | Some (at, _) when at > stop -> ()
    | Some _ ->
        (match Heap.pop t.q with
        | Some (at, f) ->
            t.now <- at;
            t.processed <- t.processed + 1;
            f ()
        | None -> ());
        loop ()
  in
  loop ();
  if t.traced then Trace.note_engine t.trace ~events:t.processed

let pending t = Heap.length t.q
let events_processed t = t.processed
