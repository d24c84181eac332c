(** Every route a chunk takes, as static {!Peel_sim.Soa} DAGs.

    This module is the only code that turns a scheme and a collective
    into links: ring hop chains, binary and double-binary tree unicast
    chains, optimal and PEEL multicast trees, Orca's tree with its
    relay chains, peel+cores's prefix and refined trees, and
    peel-multitree's salted trees.  The other launchers (Allgather,
    Reduce, Allreduce, Failover and the controller's refinement) build
    their hops and trees here too, through {!of_path} and {!of_trees}.
    Both engines run what it builds: every launcher walks each chunk
    over a {!route} on the sequential engine
    ({!Peel_sim.Transfer.dag}), and {!flatten} hands the scheme DAGs to
    the conservative sharded engine ({!Peel_sim.Shard}).

    Edge enumeration is preorder-consistent with the sequential
    engine's FIFO tie order (chunk-major, then tree-major, then
    ascending child order), so same-instant reservations on a shared
    link serialize identically in both modes.

    Scope of {!flatten}: {!Scheme.Ring}, {!Scheme.Btree},
    {!Scheme.Dbtree}, {!Scheme.Optimal} and {!Scheme.Peel}, with
    congestion control off, no loss model and no fault schedule.  The
    other three stay on the sequential engine:
    - Orca releases its chunks only after the controller's flow-setup
      delay, while a {!Peel_sim.Soa.flow} has one [f_arrival] that is
      both the release time and the CCT origin; the delay is also an
      RNG draw, and [flatten] takes no RNG.
    - peel+cores picks each chunk's trees by comparing the chunk's
      estimated send time with the controller's sampled setup delay,
      not by [chunk mod] the number of DAGs as a flow does.
    - peel-multitree has no such constraint: its DAGs are chunk-indexed
      like the double binary tree's.  It stays off {!supported} until a
      parity test pins it against the sequential engine. *)

open Peel_topology
open Peel_workload

val supported : Scheme.t -> bool
(** Whether {!flatten} can express the scheme. *)

type route = {
  dag : Peel_sim.Soa.dag;
  trees : int array;
      (** how the source releases [dag.d_roots]: empty when each root
          starts a unicast chain, otherwise the number of roots each
          multicast tree owns, in order (the PEEL prefix packets) *)
}

val of_path : deliver:int -> int list -> route
(** A unicast route over consecutive link ids: one chain whose last
    link delivers at [deliver].  Raises [Invalid_argument] on an empty
    path. *)

val of_trees : dests:int list -> Peel_steiner.Tree.t list -> route
(** A multicast route: each tree is released from its root as one
    unit, in list order, and replicates down in
    {!Peel_steiner.Tree.children} order.  Only members in [dests] are
    credited with a delivery. *)

val routes : Fabric.t -> Paths.t -> Scheme.t -> Spec.collective -> route array
(** The scheme's routes for a collective with at least one
    destination.  Chunk [c] forwards over [routes.(c mod n)] — two
    routes for the double binary tree's parity split, one per salted
    tree for peel-multitree — except under peel+cores, whose two
    routes are PEEL's prefix trees and the refined single tree (the
    prefix trees again when no refined tree exists) and which the
    caller picks between by time.  Uses the given path cache.  Raises
    [Invalid_argument] for {!Scheme.Orca} (see {!orca}); [Failure] when
    a destination is unreachable. *)

val orca : Paths.t -> Spec.collective -> Peel_baselines.Orca.plan -> route
(** Orca's route for a drawn controller plan: the plan's tree, with
    each agent's relay chains hung on the agent's arrival edge ahead
    of its tree children. *)

val flatten :
  Fabric.t ->
  Paths.t ->
  chunks:int ->
  Scheme.t ->
  Spec.collective list ->
  Peel_sim.Soa.flow array
(** One {!Peel_sim.Soa.flow} per collective, list order.  Uses the
    given path cache (so ECMP picks match a sequential run configured
    the same way).  Raises [Invalid_argument] on an unsupported scheme
    or [chunks < 1]; [Failure] when a destination is unreachable. *)

val run :
  ?chunks:int ->
  ?jobs:int ->
  ?audit:bool ->
  Fabric.t ->
  Scheme.t ->
  Spec.collective list ->
  Peel_sim.Shard.result
(** Flatten over ECMP paths, as {!Runner.run} does, and execute on
    [min jobs (pods fabric)] shards ([jobs] defaults to
    {!Peel_util.Pool.default_jobs}; [chunks] to 8).  Corpus knob:
    [chunks] is swept by the pinned sharded-engine differential sweep
    in the tests.  [audit] collects
    per-window causality evidence for SIM008.  The result is
    bit-identical for every [jobs] value. *)
