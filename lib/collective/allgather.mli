(** Allgather: every member contributes a shard ([bytes / N]) and ends
    holding all shards — the second collective the paper's motivation
    cites (Khalilov et al., "bandwidth-optimal Broadcast and
    Allgather").

    Two algorithms:
    - [Ring_exchange]: the NCCL ring — shard [s] travels [N-1]
      consecutive logical hops, every link carries [(N-1)/N * bytes];
    - [Peel_multicast]: every member multicasts its shard over its own
      PEEL plan; each fabric link in a tree carries the shard once. *)

open Peel_topology
open Peel_workload

type algo = Ring_exchange | Peel_multicast

val algo_to_string : algo -> string

val run :
  Fabric.t ->
  algo ->
  Spec.collective list ->
  Runner.outcome
(** Simulate every collective on one shared engine in 8 chunks
    ({!Runner.run_custom}).  [spec.bytes] is the total gathered size;
    each member contributes [bytes / N].  [spec.members] must have at
    least 2 entries.  A collective completes when every member holds
    every shard. *)
