(** Reduce: every member contributes [bytes] of data; the element-wise
    combination lands at the root ([spec.source]).

    Reduction happens at hosts (the paper claims no in-network compute),
    so multicast does not help this direction — these are the unicast
    algorithms PEEL-based Allreduce composes with:
    - [Ring_pass]: the accumulating chain — member i combines its
      contribution and forwards, N-1 sequential full-size hops (chunked
      and pipelined);
    - [Btree_reduce]: the reversed binary tree — a node forwards chunk
      [c] upward once it arrives from both children. *)

open Peel_topology
open Peel_workload

type algo = Ring_pass | Btree_reduce

val algo_to_string : algo -> string

val launch_with_chunk_hook :
  Peel_sim.Engine.t ->
  Peel_sim.Link_state.t ->
  Fabric.t ->
  Paths.t ->
  Broadcast.config ->
  algo ->
  spec:Spec.collective ->
  on_chunk:(int -> float -> unit) ->
  on_complete:(float -> unit) ->
  unit
(** Launch one reduce on a shared engine, reporting when each reduced
    chunk becomes available at the root — the hand-off point for a
    pipelined reduce-then-broadcast Allreduce.  [on_complete] fires
    when the root holds the fully reduced message (all chunks combined
    from all members). *)

val run :
  Fabric.t ->
  algo ->
  Spec.collective list ->
  Runner.outcome
(** Simulate every collective on one shared engine in 8 chunks
    ({!Runner.run_custom}).  A collective completes when the root holds
    the fully reduced message. *)
