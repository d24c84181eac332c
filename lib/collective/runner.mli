(** Drives a whole workload through the simulator and collects
    collective completion times. *)

open Peel_topology
open Peel_workload

type outcome = {
  ccts : float list;       (** one CCT per collective, arrival order *)
  events : int;            (** simulator events processed *)
  makespan : float;        (** time the last delivery happened *)
  telemetry : Peel_sim.Telemetry.t;
      (** link utilization over the whole run, enriched with per-link
          congestion detail when a [Full] trace was attached *)
  trace : Peel_sim.Trace.t;
      (** the trace the run recorded into ({!Peel_sim.Trace.null} if
          none was requested) *)
}

val run :
  ?chunks:int ->
  ?cc:Broadcast.cc ->
  ?controller:bool ->
  ?loss:Peel_sim.Transfer.loss ->
  ?ecmp:bool ->
  ?trace:Peel_sim.Trace.t ->
  Fabric.t ->
  Scheme.t ->
  Spec.collective list ->
  outcome
(** Simulate every collective (they share the fabric and interact
    through link queues).  Raises [Failure] if any collective cannot
    complete (unreachable destinations).

    Pass a {!Peel_sim.Trace.t} (default off) to record structured
    events: the engine, link layer, congestion control and broadcast
    schemes all report into it, keyed by each collective's [spec.id].
    With [PEEL_CHECK=1] the trace is additionally linted post-run
    ({!Peel_check.Check_sim.check_trace}). *)

val run_sharded :
  Fabric.t ->
  Scheme.t ->
  Spec.collective list ->
  outcome
(** Like {!run}, but on the conservative sharded engine
    ({!Par.run} / {!Peel_sim.Shard}): the event loop is partitioned by
    pod and windows advance under the fabric's minimum cross-pod
    lookahead, with {!run}'s defaults (8 chunks, ECMP) on
    {!Peel_util.Pool.default_jobs} domains.  Results are bit-identical
    for every domain count; versus {!run}
    they coincide except when two collectives' reservations collide at
    exactly equal float timestamps on a shared link, where the two
    engines apply different (each deterministic) FIFO tie orders.

    Only the static schemes are supported ({!Par.supported});
    congestion control, loss, faults and tracing are not available on
    this path — [telemetry] carries per-link utilization only and
    [trace] is {!Peel_sim.Trace.null}.  Raises [Invalid_argument] on an
    unsupported scheme.

    With [PEEL_CHECK=1] the run collects per-window causality evidence,
    and the outcome and the evidence are linted post-run
    ({!Peel_check.Check_sim.check_shard}, SIM008). *)

val run_custom :
  ?chunks:int ->
  ?cc:Broadcast.cc ->
  ?controller:bool ->
  ?loss:Peel_sim.Transfer.loss ->
  ?ecmp:bool ->
  ?trace:Peel_sim.Trace.t ->
  ?faults:Peel_sim.Fault.t ->
  ?on_fault:(Peel_sim.Fault.event -> unit) ->
  Fabric.t ->
  launch:
    (Peel_sim.Engine.t ->
    Peel_sim.Link_state.t ->
    Paths.t ->
    Broadcast.config ->
    spec:Spec.collective ->
    on_complete:(float -> unit) ->
    unit) ->
  Spec.collective list ->
  outcome
(** Same engine/link sharing as {!run}, but with a caller-provided
    launcher — how the non-broadcast collectives (allgather, reduce,
    allreduce) plug in.

    [faults] installs a deterministic link fail/recover schedule before
    any collective launches (same-instant ties resolve failure-first),
    and each applied transition invalidates the path cache and then
    fires [on_fault] — the controller's notification hook.  Plain
    {!Broadcast.launch} fixes every scheme's routes at launch and stalls
    a chunk on a dead hop until the pair recovers, so it rides out a
    transient outage but never completes across a permanent failure on
    its routes; use {!Failover.run} to reroute.  Every launcher passes
    through here, so this is where [chunks] is checked: raises
    [Invalid_argument] if [chunks < 1], before any event. *)

val summarize : outcome -> Peel_util.Stats.summary
(** Mean/p99 CCT summary of an outcome. *)
