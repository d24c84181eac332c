open Peel_topology

let path_links g nodes =
  let rec go acc = function
    | a :: (b :: _ as rest) -> (
        match Graph.link_between g a b with
        | Some lid -> go (lid :: acc) rest
        | None -> invalid_arg "Transfer.path_links: missing or down link")
    | _ -> List.rev acc
  in
  go [] nodes

type loss = {
  loss_rng : Peel_util.Rng.t;
  prob : float;
  rto : float;
  mutable retransmissions : int;
}

let loss_model ~seed ~prob () =
  if not (prob >= 0.0 && prob < 1.0) then
    invalid_arg "Transfer.loss_model: prob in [0,1)";
  {
    loss_rng = Peel_util.Rng.create seed;
    prob;
    rto = 100e-6;
    retransmissions = 0;
  }

let dropped = function
  | None -> false
  | Some l -> l.prob > 0.0 && Peel_util.Rng.float l.loss_rng 1.0 < l.prob

(* Retry cadence when a hop finds its link down and nobody is listening
   for the loss: stall and probe until the pair recovers. *)
let default_rto = 100e-6

let retry_after = function Some l -> l.rto | None -> default_rto

(* [f] hears of every delivery at or below edge [e], in DAG order. *)
let rec orphan (d : Soa.dag) f e time =
  let node = d.Soa.d_deliver.(e) in
  if node >= 0 then f ~node ~time;
  for i = d.Soa.d_succ_off.(e) to d.Soa.d_succ_off.(e + 1) - 1 do
    orphan d f d.Soa.d_succ.(i) time
  done

let dag engine links (d : Soa.dag) ~trees ~bytes ~start ?loss
    ?(on_reserve = fun ~link:_ _ -> ()) ?on_lost ~on_delivered () =
  let tr = Link_state.trace links in
  let rec send e t = Engine.schedule engine t (fun () -> step e t)
  (* At its reservation time [t] the chunk crosses edge [e]'s link.  A
     random loss is repaired on this hop: its sender resends after
     [finish + rto].  A link that is down, or whose {!Link_state.epoch}
     moved under the chunk, loses it. *)
  and step e t =
    let lid = d.Soa.d_link.(e) in
    if not (Link_state.up links ~link:lid) then begin
      Trace.drop tr ~time:t ~link:lid;
      lost e t
    end
    else begin
      let epoch0 = Link_state.epoch links ~link:lid in
      let r = Link_state.reserve links ~link:lid ~now:t ~bytes in
      on_reserve ~link:lid r;
      if dropped loss then begin
        let l = Option.get loss in
        l.retransmissions <- l.retransmissions + 1;
        Trace.drop tr ~time:t ~link:lid;
        Engine.schedule engine (r.Link_state.finish +. l.rto) (fun () ->
            let now = Engine.now engine in
            Trace.retransmit tr ~time:now ~flow:(-1) ~node:(-1);
            send e now)
      end
      else begin
        let arrive = Link_state.arrival links ~link:lid r in
        Engine.schedule engine arrive (fun () ->
            if Link_state.epoch links ~link:lid <> epoch0 then begin
              Trace.drop tr ~time:arrive ~link:lid;
              lost e arrive
            end
            else arrived e arrive)
      end
    end
  (* With [on_lost] the caller repairs end to end; otherwise the edge
     stalls and retries until the pair recovers. *)
  and lost e time =
    match on_lost with
    | Some f -> orphan d f e time
    | None ->
        Engine.schedule engine (time +. retry_after loss) (fun () ->
            send e (Engine.now engine))
  and arrived e arrive =
    let node = d.Soa.d_deliver.(e) in
    if node >= 0 then on_delivered ~node ~time:arrive;
    for i = d.Soa.d_succ_off.(e) to d.Soa.d_succ_off.(e + 1) - 1 do
      send d.Soa.d_succ.(i) arrive
    done
  in
  if Array.length trees = 0 then Array.iter (fun e -> send e start) d.Soa.d_roots
  else begin
    (* One release event per multicast tree. *)
    let first = ref 0 in
    Array.iter
      (fun n ->
        let lo = !first in
        first := lo + n;
        Engine.schedule engine start (fun () ->
            for j = lo to lo + n - 1 do
              send d.Soa.d_roots.(j) start
            done))
      trees
  end
