(** Broadcast under mid-run link failures: a controller model with
    detection and reaction delays that re-peels the multicast tree on
    the surviving fabric and splices it in (§2.3's greedy re-run as the
    paper's failure story), next to ring and binary-tree baselines that
    can only repair end-to-end.

    The failure schedule itself is a {!Peel_sim.Fault.t}; this module
    supplies the launchers that *survive* it: every lost chunk is
    eventually repaired (NACK-driven unicast from the source, RDMA-style
    selective repeat), so a run completes as long as the fabric is not
    permanently partitioned. *)

open Peel_topology
open Peel_workload

(** Which broadcast scheme carries the collective.  [Peel] re-plans via
    {!Peel_steiner.Layer_peel.repeel} on every failure; [Ring] and
    [Btree] keep their fixed logical schedule and fall back to unicast
    repairs from the source. *)
type scheme = Peel | Ring | Btree

val all_schemes : scheme list

val scheme_to_string : scheme -> string
(** ["peel"], ["ring"], ["tree"]. *)

val scheme_of_string : string -> scheme option
(** Inverse of {!scheme_to_string}; also accepts ["btree"]. *)

(** Controller timing model.  [detection] is how long until a failure is
    noticed (port-down signal propagation), [reaction] how long the
    controller takes to compute and install the new tree after noticing,
    and [repair_rto] the receiver NACK timeout driving end-to-end chunk
    repairs. *)
type ctrl = { detection : float; reaction : float; repair_rto : float }

val default_ctrl : ctrl
(** 500 us detection, 1 ms reaction, 4 ms repair RTO. *)

val run :
  ?chunks:int ->
  ?ctrl:ctrl ->
  ?loss:Peel_sim.Transfer.loss ->
  ?trace:Peel_sim.Trace.t ->
  ?faults:Peel_sim.Fault.t ->
  Fabric.t ->
  scheme ->
  Spec.collective list ->
  Runner.outcome
(** Like {!Runner.run} but failure-tolerant: the fault schedule is
    installed before launch, each applied failure notifies every live
    collective's controller, and — for [Peel] — after
    [ctrl.detection +. ctrl.reaction] the tree is re-peeled on the
    surviving fabric ({!Peel_sim.Trace.Replan} is emitted) and chunks
    with recorded losses are resent over it.  Deliveries are deduplicated,
    so chunk conservation ([SIM005]) holds exactly even when a resend
    overlaps a repair.  With [PEEL_CHECK=1] each replanned tree is
    checked against the splice invariant ([TREE006]).

    Raises [Failure] (from {!Runner.run_custom}) if a collective cannot
    complete — e.g. the schedule permanently partitions a receiver.
    Corpus knob: the pinned launcher corpus in the tests sweeps
    [loss]. *)
