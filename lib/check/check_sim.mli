(** Static checks over simulator inputs and outputs.

    Codes:
    - [SIM001] a fabric link has non-positive bandwidth or negative
      latency
    - [SIM002] a congestion-control parameter is out of its sane range
      (non-positive line rate or guard window, negative ECN threshold;
      a guard window far above the paper's 50 µs is a warning)
    - [SIM003] a collective completion time is missing, NaN, or
      negative — some chunk was lost without recovery
    - [SIM004] a link reports utilization above 1 (busy longer than the
      observation horizon)
    - [SIM005] chunk conservation violated: the number of delivered
      chunks differs from [chunks * receivers]
    - [SIM006] a recorded trace is structurally broken: timestamps run
      backwards or are invalid, a reserve event carries non-positive
      bytes or a negative delay, or (at [Full] level) the event log
      disagrees with the aggregate counters
    - [SIM007] a link was reserved while its duplex pair was down,
      replaying the trace's [Link_fail]/[Link_recover] events — since
      delivery requires the final hop's reservation, this also enforces
      that no chunk is delivered through a failed link
    - [SIM008] shard-boundary causality in the conservative parallel
      engine: within each barrier window every executed event precedes
      the window bound, every cross-shard event received at the barrier
      lands at or past it, bounds strictly advance, and all shards
      audit the same number of epochs *)

open Peel_topology

val check_fabric : Fabric.t -> Diagnostic.t list

val check_cc_params :
  ?guard:float option ->
  ecn_delay:float ->
  line_rate:float ->
  unit ->
  Diagnostic.t list
(** [guard] defaults to the paper's 50 µs window (like
    {!Peel_sim.Dcqcn.create}); pass [Some None] for guard-less DCQCN.
    Unit-tested: no caller outside its own tests. *)

val check_outcome :
  ?expected:int ->
  ccts:float list ->
  makespan:float ->
  Peel_sim.Telemetry.t ->
  Diagnostic.t list
(** Post-run conservation: [expected] collectives all completed with
    finite non-negative CCTs no later than [makespan], and no link was
    busy for more than the whole horizon. *)

val check_trace :
  ?expected_deliveries:int -> Peel_sim.Trace.t -> Diagnostic.t list
(** Structural lint of a recorded trace: timestamps non-decreasing and
    finite, reserve events well-formed, and — at [Full] level — the
    event log consistent with the counters (reserve events plus
    sampling skips equal reservations; delivery, release, link-fail,
    link-recover and replan events equal their counters).  Replays
    fault events to flag any reservation on a down duplex pair
    ([SIM007]).  When [expected_deliveries] is given, traced deliveries
    must equal it (chunk conservation, [SIM005]). *)

val check_shard : Peel_sim.Shard.result -> Diagnostic.t list
(** SIM008 audit of a sharded run.  Requires the run to have collected
    evidence ([Peel_sim.Shard.run ~audit:true] /
    [Peel_collective.Par.run ~audit:true]); with no audit records the
    check passes vacuously.  Verifies, per shard and window: no event
    executed at or past the window bound, no cross-shard event received
    before it, bounds strictly increasing, windows sequential, and
    barrier epoch counts identical across shards. *)

val check_chunk_conservation :
  chunks:int -> receivers:int -> delivered:int -> Diagnostic.t list
(** Every receiver must get every chunk exactly once:
    [delivered = chunks * receivers].
    Unit-tested: no caller outside its own tests. *)
