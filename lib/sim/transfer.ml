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

let loss_model ~seed ~prob ?(rto = 100e-6) () =
  if prob < 0.0 || prob >= 1.0 then invalid_arg "Transfer.loss_model: prob in [0,1)";
  if rto <= 0.0 then invalid_arg "Transfer.loss_model: rto > 0";
  { loss_rng = Peel_util.Rng.create seed; prob; rto; retransmissions = 0 }

let dropped = function
  | None -> false
  | Some l -> l.prob > 0.0 && Peel_util.Rng.float l.loss_rng 1.0 < l.prob

(* Retry cadence when a hop finds its link down and nobody is listening
   for the loss: stall and probe until the pair recovers. *)
let default_rto = 100e-6

let retry_after = function Some l -> l.rto | None -> default_rto

(* The one per-hop step every route shape shares: at its reservation
   time [t], the chunk [key] names crosses link [lid].  A down link
   traces a [Drop] and hands the chunk to [lost key t]; otherwise the
   link is reserved and [on_reserve] sees the reservation.  A random
   loss is repaired on this hop: the hop's sender resends via [resend]
   after [finish + rto].  At arrival, a link that failed under the chunk
   ({!Link_state.epoch} moved) traces a [Drop] and calls [lost]; else
   [arrived key arrive] forwards it. *)
let cross engine links ~bytes ~loss ~on_reserve ~lost ~resend ~arrived key lid t =
  let tr = Link_state.trace links in
  if not (Link_state.up links ~link:lid) then begin
    Trace.drop tr ~time:t ~link:lid;
    lost key t
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
          resend key now)
    end
    else begin
      let arrive = Link_state.arrival links ~link:lid r in
      Engine.schedule engine arrive (fun () ->
          if Link_state.epoch links ~link:lid <> epoch0 then begin
            Trace.drop tr ~time:arrive ~link:lid;
            lost key arrive
          end
          else arrived key arrive)
    end
  end

let no_reserve ~link:_ _ = ()

let unicast engine links ~links:path ~bytes ~start ?loss ?on_lost ~on_delivered
    () =
  let rec hop remaining t =
    match remaining with
    | [] -> on_delivered t
    | lid :: _ -> Engine.schedule engine t (fun () -> step remaining lid t)
  and step remaining lid t =
    cross engine links ~bytes ~loss ~on_reserve:no_reserve ~lost ~resend:hop
      ~arrived remaining lid t
  (* With [on_lost] the caller repairs end to end; otherwise the hop
     stalls and retries until the pair recovers. *)
  and lost remaining time =
    match on_lost with
    | Some f -> f ~time
    | None ->
        Engine.schedule engine (time +. retry_after loss) (fun () ->
            hop remaining (Engine.now engine))
  and arrived remaining arrive = hop (List.tl remaining) arrive in
  hop path start

let multicast engine links ~tree ~bytes ~start ?loss ?on_lost ~on_delivered ()
    =
  let lose node t = match on_lost with Some f -> f ~node ~time:t | None -> () in
  (* Every member below a failed link misses the chunk. *)
  let rec orphan v t =
    List.iter
      (fun (child, _) ->
        lose child t;
        orphan child t)
      (Peel_steiner.Tree.children tree v)
  in
  let rec send ((_, lid) as edge) t =
    Engine.schedule engine t (fun () -> step edge lid t)
  and step edge lid t =
    cross engine links ~bytes ~loss ~on_reserve:no_reserve ~lost ~resend:send
      ~arrived edge lid t
  and lost (child, _) t =
    lose child t;
    orphan child t
  and arrived (child, _) arrive =
    on_delivered ~node:child ~time:arrive;
    descend child arrive
  and descend v t =
    List.iter (fun edge -> send edge t) (Peel_steiner.Tree.children tree v)
  in
  Engine.schedule engine start (fun () ->
      descend (Peel_steiner.Tree.root tree) start)

let dag engine links (d : Soa.dag) ~trees ~bytes ~start ?loss ~on_reserve
    ~on_delivered () =
  let rec send e t = Engine.schedule engine t (fun () -> step e t)
  and step e t =
    cross engine links ~bytes ~loss ~on_reserve ~lost ~resend:send ~arrived e
      d.Soa.d_link.(e) t
  and lost e time =
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
    (* One release event per multicast tree, as {!multicast} schedules. *)
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
