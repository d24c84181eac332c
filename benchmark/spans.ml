(* In-memory spans for the traced run, written out when the run ends.

   A span is one timed call (or batch of [calls] identical calls) into
   a layer, made from the benchmark's own files: name, start, end, the
   span that caused it, and the run id every span of one workload run
   shares.  Times are nanoseconds since the recorder was created. *)

module Json = Peel_util.Json

type span = {
  id : int;
  parent : int;  (* -1 for the root *)
  name : string;
  start_ns : float;
  end_ns : float;
  calls : int;
}

type t = { run_id : string; origin : int64; mutable spans : span list; mutable next : int }

let create ~run_id = { run_id; origin = Util.now_ns (); spans = []; next = 0 }

let rel t = Int64.to_float (Int64.sub (Util.now_ns ()) t.origin)

(* Record a span around [f id], where [id] is the new span's own id, so
   [f] can attach child spans to it. *)
let with_ t ?(parent = -1) ?(calls = 1) name f =
  let id = t.next in
  t.next <- id + 1;
  let start_ns = rel t in
  let r = f id in
  t.spans <- { id; parent; name; start_ns; end_ns = rel t; calls } :: t.spans;
  r

let to_json t =
  Json.Obj
    [
      ("run_id", Json.str t.run_id);
      ( "spans",
        Json.Arr
          (List.rev_map
             (fun s ->
               Json.Obj
                 [
                   ("id", Json.int s.id);
                   ("parent", Json.int s.parent);
                   ("name", Json.str s.name);
                   ("start_ns", Json.num s.start_ns);
                   ("end_ns", Json.num s.end_ns);
                   ("calls", Json.int s.calls);
                 ])
             t.spans) );
    ]
