type t = {
  line_rate : float;
  guard : float option;
  mutable current : float;
  mutable last_update : float;
  mutable last_cut : float;
  mutable cuts : int;
  trace : Trace.t;
  flow : int;
}

let default_guard = 50e-6

(* Full recovery from the floor back to line rate takes this long. *)
let recovery_time = 2e-3

let min_fraction = 1e-3

let create ?(guard = Some default_guard) ?(trace = Trace.null) ?(flow = -1)
    ~line_rate () =
  if not (line_rate > 0.0) then invalid_arg "Dcqcn.create: line_rate > 0";
  (match guard with
  | Some g when not (g > 0.0) -> invalid_arg "Dcqcn.create: guard window > 0"
  | _ -> ());
  {
    line_rate;
    guard;
    current = line_rate;
    last_update = 0.0;
    last_cut = neg_infinity;
    cuts = 0;
    trace;
    flow;
  }

let recover t ~now =
  if now > t.last_update then begin
    let gain = t.line_rate *. (now -. t.last_update) /. recovery_time in
    t.current <- Float.min t.line_rate (t.current +. gain);
    t.last_update <- now
  end

let rate t ~now =
  recover t ~now;
  t.current

let on_cnp t ~now =
  recover t ~now;
  Trace.cnp t.trace ~time:now ~flow:t.flow;
  let allowed =
    match t.guard with None -> true | Some g -> now -. t.last_cut >= g
  in
  if allowed then begin
    t.current <- Float.max (t.line_rate *. min_fraction) (t.current /. 2.0);
    t.last_cut <- now;
    t.cuts <- t.cuts + 1;
    Trace.rate_cut t.trace ~time:now ~flow:t.flow ~rate:t.current
  end
  else Trace.guard_hold t.trace ~time:now ~flow:t.flow

let release_duration t ~now ~bytes =
  if not (bytes > 0.0) then invalid_arg "Dcqcn.release_duration: bytes > 0";
  bytes /. rate t ~now

let cuts t = t.cuts
