open Peel_topology
open Peel_sim
open Peel_workload

type scheme = Peel | Ring | Btree

let all_schemes = [ Peel; Ring; Btree ]

let scheme_to_string = function Peel -> "peel" | Ring -> "ring" | Btree -> "tree"

let scheme_of_string = function
  | "peel" -> Some Peel
  | "ring" -> Some Ring
  | "tree" | "btree" -> Some Btree
  | _ -> None

type ctrl = { detection : float; reaction : float; repair_rto : float }

let default_ctrl = { detection = 500e-6; reaction = 1e-3; repair_rto = 4e-3 }

let nic_rate = 12.5e9

(* ------------------------------------------------------------------ *)
(* PEEL with controller re-peeling                                     *)
(* ------------------------------------------------------------------ *)

let launch_peel engine links fabric paths cfg ctrl ~(spec : Spec.collective)
    ~on_complete =
  let g = Fabric.graph fabric in
  let source = spec.source in
  let dests =
    List.sort_uniq compare (List.filter (fun d -> d <> source) spec.dests)
  in
  let trace = cfg.Broadcast.trace in
  let flow = spec.id in
  let chunks = cfg.Broadcast.chunks in
  let chunk_bytes = spec.bytes /. float_of_int chunks in
  let tree0 =
    match Peel_steiner.Layer_peel.build g ~source ~dests with
    | Some t -> t
    | None -> failwith "Failover: destinations unreachable"
  in
  let current = ref tree0 in
  let route = ref (Par.of_trees ~dests [ tree0 ]) in
  let ndests = List.length dests in
  (* Deduplicated delivery state: a replan resend can overlap a NACK
     repair, but each (dest, chunk) counts exactly once — conservation
     (SIM005) stays exact. *)
  let delivered = Hashtbl.create 64 in
  let repairing = Hashtbl.create 16 in
  let missing = Array.make chunks ndests in
  let lossy = Array.make chunks false in
  let released = Array.make chunks false in
  let remaining = ref (chunks * ndests) in
  let last = ref spec.arrival in
  let finished () = !remaining = 0 in
  let deliver node chunk time =
    if not (Hashtbl.mem delivered (node, chunk)) then begin
      Hashtbl.replace delivered (node, chunk) ();
      Trace.delivery trace ~time ~node ~flow ~chunk;
      missing.(chunk) <- missing.(chunk) - 1;
      decr remaining;
      if time > !last then last := time;
      if !remaining = 0 then on_complete (!last -. spec.arrival)
    end
  in
  (* End-to-end repair: the receiver NACKs, the source unicasts over a
     live path.  Retries until it lands (or the run is abandoned). *)
  let rec repair node chunk =
    if
      (not (Hashtbl.mem delivered (node, chunk)))
      && not (Hashtbl.mem repairing (node, chunk))
    then begin
      Hashtbl.replace repairing (node, chunk) ();
      let now = Engine.now engine in
      Trace.retransmit trace ~time:now ~flow ~node;
      match Paths.links paths source node with
      | path ->
          let r = Par.of_path ~deliver:node path in
          Transfer.dag engine links r.Par.dag ~trees:r.Par.trees
            ~bytes:chunk_bytes ~start:now ?loss:cfg.Broadcast.loss
            ~on_lost:(fun ~node:_ ~time ->
              Hashtbl.remove repairing (node, chunk);
              lost node chunk time)
            ~on_delivered:(fun ~node:_ ~time ->
              Hashtbl.remove repairing (node, chunk);
              deliver node chunk time)
            ()
      | exception Invalid_argument _ ->
          (* No live path right now; probe again after the NACK RTO. *)
          Hashtbl.remove repairing (node, chunk);
          Engine.schedule_in engine ctrl.repair_rto (fun () ->
              repair node chunk)
    end
  and lost node chunk time =
    lossy.(chunk) <- true;
    if not (Hashtbl.mem delivered (node, chunk)) then
      Engine.schedule engine
        (time +. ctrl.detection +. ctrl.repair_rto)
        (fun () -> repair node chunk)
  in
  let send_tree chunk t =
    let r = !route in
    Transfer.dag engine links r.Par.dag ~trees:r.Par.trees ~bytes:chunk_bytes
      ~start:t ?loss:cfg.Broadcast.loss
      ~on_lost:(fun ~node ~time -> lost node chunk time)
      ~on_delivered:(fun ~node ~time -> deliver node chunk time)
      ()
  in
  (* Chunks leave the source NIC back to back at line rate. *)
  for c = 0 to chunks - 1 do
    let t = spec.arrival +. (float_of_int c *. chunk_bytes /. nic_rate) in
    Engine.schedule engine t (fun () ->
        released.(c) <- true;
        Trace.release trace ~time:t ~flow ~chunk:c ~rate:nic_rate;
        send_tree c t)
  done;
  (* The controller: notified of every fault, and after the detection +
     reaction delay re-peels on the surviving fabric.  Survivors keep
     their bindings (the splice invariant), so in-flight subtrees above
     the cut are untouched. *)
  fun (ev : Fault.event) ->
    match ev.Fault.action with
    | Fault.Recover -> ()
    | Fault.Fail ->
        if not (finished ()) then
          Engine.schedule_in engine
            (ctrl.detection +. ctrl.reaction)
            (fun () ->
              if not (finished ()) then
                match
                  Peel_steiner.Layer_peel.repeel g ~prev:!current ~source
                    ~dests
                with
                | None ->
                    (* Partitioned: NACK repairs keep probing until a
                       recovery restores connectivity. *)
                    ()
                | Some t' ->
                    if Peel_check.enabled () then
                      Peel_check.assert_valid ~what:"replanned tree"
                        (Peel_check.Check_tree.check_splice g ~prev:!current
                           ~tree:t' ~source ~dests);
                    current := t';
                    route := Par.of_trees ~dests [ t' ];
                    let now = Engine.now engine in
                    Trace.replan trace ~time:now ~flow
                      ~cost:(Peel_steiner.Tree.cost t');
                    (* Resend only the chunks with recorded losses; the
                       rest are either delivered or still in flight on
                       surviving subtrees. *)
                    for c = 0 to chunks - 1 do
                      if released.(c) && lossy.(c) && missing.(c) > 0 then begin
                        lossy.(c) <- false;
                        send_tree c now
                      end
                    done)

(* ------------------------------------------------------------------ *)
(* Ring / binary-tree baselines: fixed logical schedule, end-to-end     *)
(* unicast repair from the source                                       *)
(* ------------------------------------------------------------------ *)

let launch_chain engine links fabric paths cfg ctrl ~kind
    ~(spec : Spec.collective) ~on_complete =
  let source = spec.source in
  let trace = cfg.Broadcast.trace in
  let flow = spec.id in
  let chunks = cfg.Broadcast.chunks in
  let chunk_bytes = spec.bytes /. float_of_int chunks in
  let order =
    match kind with
    | `Ring ->
        (Peel_baselines.Ring.schedule fabric ~source ~members:spec.members)
          .Peel_baselines.Ring.order
    | `Btree ->
        (Peel_baselines.Binary_tree.schedule fabric ~source
           ~members:spec.members)
          .Peel_baselines.Binary_tree.order
  in
  let n = Array.length order in
  let children pos =
    match kind with
    | `Ring -> if pos + 1 < n then [ pos + 1 ] else []
    | `Btree -> List.filter (fun c -> c < n) [ (2 * pos) + 1; (2 * pos) + 2 ]
  in
  let dests =
    List.sort_uniq compare (List.filter (fun d -> d <> source) spec.dests)
  in
  let dest_set = Hashtbl.create (List.length dests * 2) in
  List.iter (fun d -> Hashtbl.replace dest_set d ()) dests;
  let got = Array.make_matrix chunks n false in
  let repairing = Hashtbl.create 16 in
  (* Guards against a repair resuming a pipeline position that the
     original schedule (or an earlier repair) already forwarded from. *)
  let forwarded = Hashtbl.create 64 in
  let remaining = ref (chunks * List.length dests) in
  let last = ref spec.arrival in
  let deliver pos chunk time =
    if not got.(chunk).(pos) then begin
      got.(chunk).(pos) <- true;
      let node = order.(pos) in
      if Hashtbl.mem dest_set node then begin
        Trace.delivery trace ~time ~node ~flow ~chunk;
        decr remaining;
        if time > !last then last := time;
        if !remaining = 0 then on_complete (!last -. spec.arrival)
      end
    end
  in
  let rec forward pos chunk t =
    List.iter
      (fun q ->
        if not (Hashtbl.mem forwarded (q, chunk)) then begin
          Hashtbl.replace forwarded (q, chunk) ();
          send pos q chunk t
        end)
      (children pos)
  and send pos q chunk t =
    (* Routes re-resolve per send: a post-failure forward takes the
       rerouted path (the cache was invalidated by the fault hook). *)
    match Paths.links paths order.(pos) order.(q) with
    | path -> send_path ignore path q chunk t
    | exception Invalid_argument _ -> lost q chunk t
  (* One chunk to position [q]; [settle] runs first once it lands or
     is lost. *)
  and send_path settle path q chunk t =
    let r = Par.of_path ~deliver:order.(q) path in
    Transfer.dag engine links r.Par.dag ~trees:r.Par.trees ~bytes:chunk_bytes
      ~start:t ?loss:cfg.Broadcast.loss
      ~on_lost:(fun ~node:_ ~time ->
        settle ();
        lost q chunk time)
      ~on_delivered:(fun ~node:_ ~time ->
        settle ();
        deliver q chunk time;
        forward q chunk time)
      ()
  and lost q chunk time =
    if not got.(chunk).(q) then
      Engine.schedule engine
        (time +. ctrl.detection +. ctrl.repair_rto)
        (fun () -> repair q chunk)
  and repair q chunk =
    if (not got.(chunk).(q)) && not (Hashtbl.mem repairing (q, chunk)) then begin
      Hashtbl.replace repairing (q, chunk) ();
      let now = Engine.now engine in
      Trace.retransmit trace ~time:now ~flow ~node:order.(q);
      match Paths.links paths source order.(q) with
      | path ->
          send_path (fun () -> Hashtbl.remove repairing (q, chunk)) path q chunk now
      | exception Invalid_argument _ ->
          Hashtbl.remove repairing (q, chunk);
          Engine.schedule_in engine ctrl.repair_rto (fun () -> repair q chunk)
    end
  in
  for c = 0 to chunks - 1 do
    let t = spec.arrival +. (float_of_int c *. chunk_bytes /. nic_rate) in
    Engine.schedule engine t (fun () ->
        Trace.release trace ~time:t ~flow ~chunk:c ~rate:nic_rate;
        forward 0 c t)
  done;
  (* No replanning: the logical schedule is fixed, losses repair
     end-to-end, and routing heals by itself once paths re-resolve. *)
  fun (_ : Fault.event) -> ()

let run ?(chunks = 8) ?(ctrl = default_ctrl) ?loss ?trace ?faults fabric
    scheme collectives =
  let handlers = ref [] in
  Runner.run_custom ~chunks ?loss ?trace ?faults
    ~on_fault:(fun ev -> List.iter (fun h -> h ev) (List.rev !handlers))
    fabric
    ~launch:(fun engine links paths cfg ~spec ~on_complete ->
      if spec.Spec.dests = [] then
        Engine.schedule engine spec.Spec.arrival (fun () -> on_complete 0.0)
      else begin
        let h =
          match scheme with
          | Peel ->
              launch_peel engine links fabric paths cfg ctrl ~spec ~on_complete
          | Ring ->
              launch_chain engine links fabric paths cfg ctrl ~kind:`Ring ~spec
                ~on_complete
          | Btree ->
              launch_chain engine links fabric paths cfg ctrl ~kind:`Btree
                ~spec ~on_complete
        in
        handlers := h :: !handlers
      end)
    collectives
