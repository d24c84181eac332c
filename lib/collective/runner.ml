open Peel_topology
open Peel_sim
open Peel_workload
module Rng = Peel_util.Rng

type outcome = {
  ccts : float list;
  events : int;
  makespan : float;
  telemetry : Telemetry.t;
  trace : Trace.t;
}

let run_custom ?(chunks = 8) ?(cc = Broadcast.No_cc) ?(controller = true) ?loss
    ?(ecmp = true) ?(trace = Trace.null) ?faults ?on_fault fabric ~launch
    collectives =
  if chunks < 1 then invalid_arg "Runner.run_custom: chunks must be >= 1";
  let engine = Engine.create ~trace () in
  let links = Link_state.create ~trace (Fabric.graph fabric) in
  let paths = Paths.create ~ecmp fabric in
  let cfg =
    {
      Broadcast.chunks; cc; rng = Rng.create 1234; controller; loss; trace;
    }
  in
  (* Install the fault schedule BEFORE launching any collective: the
     engine breaks same-time ties FIFO, so a failure and a transfer
     scheduled for the same instant apply the failure first — no chunk
     ever reserves a link that went down "at the same time". *)
  (match faults with
  | None -> ()
  | Some sched ->
      Fault.install engine links sched
        ~on_event:(fun ev ->
          Paths.invalidate paths;
          match on_fault with Some f -> f ev | None -> ())
        ());
  let n = List.length collectives in
  let results = Array.make n nan in
  let done_count = ref 0 in
  List.iteri
    (fun i (spec : Spec.collective) ->
      launch engine links paths cfg ~spec ~on_complete:(fun cct ->
          results.(i) <- cct;
          incr done_count))
    collectives;
  Engine.run engine;
  if !done_count <> n then
    failwith
      (Printf.sprintf "Runner.run: %d of %d collectives did not complete"
         (n - !done_count) n);
  let makespan = Engine.now engine in
  let telemetry =
    Telemetry.snapshot (Fabric.graph fabric) links
      ~horizon:(Float.max makespan 1e-9)
  in
  let ccts = Array.to_list results in
  (* Debug-mode invariant assertions (PEEL_CHECK=1): every collective
     completed with a sane CCT and no link was busy past the horizon. *)
  if Peel_check.enabled () then begin
    Peel_check.assert_valid ~what:"simulation outcome"
      (Peel_check.Check_sim.check_outcome ~expected:n ~ccts ~makespan telemetry);
    if Trace.enabled trace then
      Peel_check.assert_valid ~what:"simulation trace"
        (Peel_check.Check_sim.check_trace trace)
  end;
  { ccts; events = Engine.events_processed engine; makespan; telemetry; trace }

let run_sharded fabric scheme collectives =
  (* Collect causality evidence whenever the check layer is armed, so
     the SIM008 lint below has something to audit. *)
  let r = Par.run ~audit:(Peel_check.enabled ()) fabric scheme collectives in
  let makespan = r.Shard.r_makespan in
  let telemetry =
    Telemetry.of_busy (Fabric.graph fabric) ~busy:r.Shard.r_busy
      ~horizon:(Float.max makespan 1e-9)
  in
  let ccts = Array.to_list r.Shard.r_ccts in
  if Peel_check.enabled () then begin
    Peel_check.assert_valid ~what:"sharded simulation outcome"
      (Peel_check.Check_sim.check_outcome ~expected:(List.length collectives)
         ~ccts ~makespan telemetry);
    Peel_check.assert_valid ~what:"shard-boundary causality"
      (Peel_check.Check_sim.check_shard r)
  end;
  { ccts; events = r.Shard.r_events; makespan; telemetry; trace = Trace.null }

let run ?chunks ?cc ?controller ?loss ?ecmp ?trace fabric scheme collectives =
  run_custom ?chunks ?cc ?controller ?loss ?ecmp ?trace fabric
    ~launch:(fun engine links paths cfg ~spec ~on_complete ->
      Broadcast.launch engine links fabric paths cfg scheme ~spec ~on_complete)
    collectives

let summarize outcome = Peel_util.Stats.summarize outcome.ccts
