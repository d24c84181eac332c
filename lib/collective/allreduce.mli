(** Allreduce: every member contributes [bytes]; everyone ends with the
    element-wise combination — the collective that dominates data-
    parallel training traffic.

    Two algorithms:
    - [Ring_rs_ag]: the canonical ring — reduce-scatter then allgather,
      2(N-1) shard hops per shard, every NIC moves ~2*bytes;
    - [Reduce_then_peel]: a binary-tree reduce into a root pipelined
      into a PEEL multicast broadcast — each reduced chunk starts its
      broadcast the moment it is available, so the two phases overlap.
      This is the composition the paper's thesis enables: multicast as
      a first-class primitive inside larger collectives. *)

open Peel_topology
open Peel_workload

type algo = Ring_rs_ag | Reduce_then_peel

val algo_to_string : algo -> string

val run :
  Fabric.t ->
  algo ->
  Spec.collective list ->
  Runner.outcome
(** Simulate every collective on one shared engine in 8 chunks
    ({!Runner.run_custom}).  A collective completes when every member
    holds the fully reduced message. *)
