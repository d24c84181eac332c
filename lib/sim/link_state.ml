open Peel_topology

type t = {
  graph : Graph.t;
  free : float array;
  busy : float array;
  epochs : int array;
  trace : Trace.t;
}

type reservation = { start : float; finish : float; queue_delay : float }

let create ?(trace = Trace.null) graph =
  let n = Graph.num_links graph in
  {
    graph;
    free = Array.make n 0.0;
    busy = Array.make n 0.0;
    epochs = Array.make n 0;
    trace;
  }

let trace t = t.trace

let up t ~link = Graph.link_up t.graph link

let epoch t ~link = t.epochs.(link)

let set_link_up t ~now ~duplex ~up:want =
  let cur = Graph.link_up t.graph duplex in
  if cur = want then false
  else begin
    let even = duplex land lnot 1 in
    if want then begin
      Graph.recover_link t.graph duplex;
      Trace.link_recover t.trace ~time:now ~link:even
    end
    else begin
      Graph.fail_link t.graph duplex;
      (* Bumping the epoch invalidates every chunk currently in flight
         (or queued) on either direction: Transfer compares the epoch it
         saw at reservation time against the one at arrival. *)
      t.epochs.(duplex) <- t.epochs.(duplex) + 1;
      t.epochs.(Graph.peer_link duplex) <- t.epochs.(Graph.peer_link duplex) + 1;
      Trace.link_fail t.trace ~time:now ~link:even
    end;
    true
  end

let reserve t ~link ~now ~bytes =
  if not (bytes > 0.0) then
    invalid_arg "Link_state.reserve: bytes must be positive";
  let l = Graph.link t.graph link in
  if not l.Graph.up then invalid_arg "Link_state.reserve: link is down";
  let backlog = Float.max 0.0 (t.free.(link) -. now) in
  let start = Float.max now t.free.(link) in
  let tx = bytes /. l.Graph.bandwidth in
  let finish = start +. tx in
  t.free.(link) <- finish;
  t.busy.(link) <- t.busy.(link) +. tx;
  let queue_delay = start -. now in
  Trace.reserve t.trace ~time:now ~link ~bytes ~queue_delay ~backlog;
  { start; finish; queue_delay }

let arrival t ~link r = r.finish +. (Graph.link t.graph link).Graph.latency

let backlog t ~link ~now = Float.max 0.0 (t.free.(link) -. now)

let busy_seconds t ~link = t.busy.(link)

let utilization t ~link ~horizon =
  if not (horizon > 0.0) then invalid_arg "Link_state.utilization: horizon > 0";
  t.busy.(link) /. horizon

let reset t =
  Array.fill t.free 0 (Array.length t.free) 0.0;
  Array.fill t.busy 0 (Array.length t.busy) 0.0;
  Array.fill t.epochs 0 (Array.length t.epochs) 0
