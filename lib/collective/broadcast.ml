open Peel_sim
open Peel_workload
module Rng = Peel_util.Rng
module Orca = Peel_baselines.Orca

type cc = No_cc | Dcqcn of { guard : float option; ecn_delay : float }

type config = {
  chunks : int;
  cc : cc;
  rng : Rng.t;
  controller : bool;
  loss : Transfer.loss option;
  trace : Trace.t;
}

let nic_rate = 12.5e9
let cnp_delay = 5e-6

(* Counts chunk deliveries at destinations (the routes credit
   destinations only); fires [complete] with the CCT when every
   destination has every chunk. *)
type tracker = {
  mutable remaining : int;
  mutable last : float;
  arrival : float;
  complete : float -> unit;
  trace : Trace.t;
  flow : int;
}

let record tracker node chunk time =
  Trace.delivery tracker.trace ~time ~node ~flow:tracker.flow ~chunk;
  tracker.remaining <- tracker.remaining - 1;
  if time > tracker.last then tracker.last <- time;
  if tracker.remaining = 0 then tracker.complete (tracker.last -. tracker.arrival)

(* Per-collective congestion control state: a DCQCN-lite sender limiter
   plus per-chunk ECN mark flags and CNP wiring. *)
type cc_state = {
  ctrl : Dcqcn.t option;
  ecn_delay : float;
  marks : bool array; (* per chunk *)
  cc_trace : Trace.t;
  cc_flow : int;
}

let make_cc_state cfg ~flow =
  match cfg.cc with
  | No_cc ->
      { ctrl = None; ecn_delay = infinity; marks = [||];
        cc_trace = cfg.trace; cc_flow = flow }
  | Dcqcn { guard; ecn_delay } ->
      {
        ctrl =
          Some (Dcqcn.create ~guard ~trace:cfg.trace ~flow ~line_rate:nic_rate ());
        ecn_delay;
        marks = Array.make cfg.chunks false;
        cc_trace = cfg.trace;
        cc_flow = flow;
      }

(* One chunk's reservation hook: a reservation that queued past the ECN
   threshold marks the chunk.  [No_cc]'s threshold is infinite. *)
let ecn_mark engine cc chunk ~link (r : Link_state.reservation) =
  if r.Link_state.queue_delay > cc.ecn_delay then begin
    Trace.ecn_mark cc.cc_trace ~time:(Engine.now engine) ~link ~flow:cc.cc_flow
      ~chunk;
    cc.marks.(chunk) <- true
  end

(* A destination that received a marked chunk emits a CNP back to the
   sender — one per receiver, which is the multicast implosion the
   guard timer tames. *)
let maybe_cnp engine cc chunk time =
  match cc.ctrl with
  | Some ctrl when cc.marks.(chunk) ->
      Engine.schedule engine (time +. cnp_delay) (fun () ->
          Dcqcn.on_cnp ctrl ~now:(Engine.now engine))
  | _ -> ()

(* Release chunks 0..chunks-1 from the source: back to back without
   congestion control, paced by the current DCQCN rate with it. *)
let release_chunks engine cfg cc ~start ~chunk_bytes ~send =
  match cc.ctrl with
  | None ->
      Engine.schedule engine start (fun () ->
          for c = 0 to cfg.chunks - 1 do
            Trace.release cfg.trace ~time:start ~flow:cc.cc_flow ~chunk:c
              ~rate:nic_rate;
            send c start
          done)
  | Some ctrl ->
      let rec go c t =
        if c < cfg.chunks then
          Engine.schedule engine t (fun () ->
              Trace.release cfg.trace ~time:t ~flow:cc.cc_flow ~chunk:c
                ~rate:(Dcqcn.rate ctrl ~now:t);
              send c t;
              let dt = Dcqcn.release_duration ctrl ~now:t ~bytes:chunk_bytes in
              go (c + 1) (t +. dt))
      in
      go 0 start

let launch engine links fabric paths cfg scheme ~(spec : Spec.collective)
    ~on_complete =
  if cfg.chunks < 1 then invalid_arg "Broadcast.launch: chunks >= 1";
  if spec.dests = [] then
    Engine.schedule engine spec.arrival (fun () -> on_complete 0.0)
  else begin
    let tracker =
      {
        remaining = cfg.chunks * List.length spec.dests;
        last = spec.arrival;
        arrival = spec.arrival;
        complete = on_complete;
        trace = cfg.trace;
        flow = spec.id;
      }
    in
    let cc = make_cc_state cfg ~flow:spec.id in
    let chunk_bytes = spec.bytes /. float_of_int cfg.chunks in
    (* Only controller timing stays scheme-specific here.  Orca and
       peel+cores draw one setup delay each from [cfg.rng] at launch,
       so the draws follow launch order. *)
    let start, route =
      match scheme with
      | Scheme.Orca ->
          let plan =
            Orca.plan fabric ~rng:cfg.rng ~source:spec.source ~dests:spec.dests
          in
          let setup = if cfg.controller then plan.Orca.setup_delay else 0.0 in
          let r = Par.orca paths spec plan in
          (spec.arrival +. setup, fun _ _ -> r)
      | Scheme.Peel_prog_cores ->
          (* Fast start on the static prefixes; once the controller has
             programmed the cores, remaining chunks ride the single-copy
             refined tree.  Chunks queue on the source NIC, so chunk
             [c]'s first byte leaves no earlier than [c] packet-copies
             later — that pacing estimate decides which chunks see the
             refined state. *)
          let routes = Par.routes fabric paths scheme spec in
          let setup_done = spec.arrival +. Orca.sample_setup_delay cfg.rng in
          let npackets = float_of_int (Array.length routes.(0).Par.trees) in
          ( spec.arrival,
            fun c t ->
              let est_send =
                t +. (float_of_int c *. npackets *. chunk_bytes /. nic_rate)
              in
              if est_send < setup_done then routes.(0) else routes.(1) )
      | _ ->
          let routes = Par.routes fabric paths scheme spec in
          (spec.arrival, fun c _ -> routes.(c mod Array.length routes))
    in
    release_chunks engine cfg cc ~start ~chunk_bytes ~send:(fun c t ->
        let r = route c t in
        Transfer.dag engine links r.Par.dag ~trees:r.Par.trees ~bytes:chunk_bytes
          ~start:t ?loss:cfg.loss ~on_reserve:(ecn_mark engine cc c)
          ~on_delivered:(fun ~node ~time ->
            record tracker node c time;
            maybe_cnp engine cc c time)
          ())
  end
