(** Executes one Broadcast collective inside the simulator under any
    scheme (paper §4).

    Messages are split into [chunks] pipelined chunks (the paper uses
    8, as NCCL-style libraries do): a chunk is forwarded as soon as it
    is fully received, so rings and trees overlap transmission along
    the schedule while multicast schemes overlap replication down the
    tree.

    Routes come from {!Par.routes} (Orca's from {!Par.orca}), fixed at
    launch, and each chunk walks its route on the sequential engine
    ({!Peel_sim.Transfer.dag}).  This module keeps only scheme-level
    timing: the delivery tracker, DCQCN pacing and CNPs, Orca's
    controller delay, peel+cores's per-chunk tree choice, and one
    controller RNG draw per Orca or peel+cores collective at launch.

    Congestion control is optional: [No_cc] runs over plain FIFO links
    (lossless fabric, queueing delay only), while [Dcqcn] adds the
    DCQCN-lite sender rate limiter with ECN-style marking — the paper's
    guard-timer experiment (§4, "Congestion control"). *)

open Peel_topology
open Peel_sim
open Peel_workload

type cc =
  | No_cc
  | Dcqcn of { guard : float option; ecn_delay : float }
      (** [guard]: minimum spacing between rate cuts ([None] = react to
          every CNP); [ecn_delay]: queueing delay on any link that marks
          a chunk. *)

type config = {
  chunks : int;
  cc : cc;
  rng : Peel_util.Rng.t;  (** controller setup delays (Orca, PEEL+cores) *)
  controller : bool;
      (** when false, Orca's flow-setup delay is zeroed — the "without
          controller overhead" variant of the paper's Figure 4 *)
  loss : Peel_sim.Transfer.loss option;
      (** per-link chunk loss with selective-repeat recovery: every
          scheme repairs a drop on the hop where it happened, the hop's
          sender resending after the RTO (the RDMA machinery the paper
          inherits) *)
  trace : Trace.t;
      (** observability sink ({!Trace.null} = off): chunk releases and
          destination deliveries, ECN marks and CNP/rate-cut/guard
          events are recorded against the collective's [spec.id] as the
          flow id *)
}

val launch :
  Engine.t ->
  Link_state.t ->
  Fabric.t ->
  Paths.t ->
  config ->
  Scheme.t ->
  spec:Spec.collective ->
  on_complete:(float -> unit) ->
  unit
(** Schedules the collective's transfers starting at [spec.arrival];
    [on_complete] fires with the collective completion time (last chunk
    at the last destination minus arrival) once every destination holds
    the whole message.  Under a fault schedule a chunk whose link is
    down, or fails under it, waits on that hop and retries every RTO
    until the pair recovers: routes never change, so a permanent
    failure on a route stalls the collective. *)
