(** Peel_check — static invariant checking over PEEL's artifacts.

    The paper's correctness claims are structural: minimum-cost trees
    in a symmetric Clos (Lemma 2.1), the [O(min(F,|D|))] layer-peeling
    bound under asymmetry (Theorem 2.5), exact power-of-two prefix
    covers with < 8 B headers and [k - 1] static rules per aggregation
    switch.  This library verifies those invariants on the values the
    code actually produces — trees, send plans, rule tables, schedules,
    simulator inputs and outputs — without executing a simulation.

    Every checker returns a list of {!Diagnostic.t}; an empty list (or
    one with no [Error] entries) means the artifact is certified.
    Diagnostic codes are stable and documented in DESIGN.md.

    Runtime wiring: set the [PEEL_CHECK=1] environment variable and the
    collective runner and experiment harness call {!assert_valid} on
    what they are about to simulate — debug-mode assertions with zero
    cost when the flag is off. *)

module Diagnostic = Diagnostic
module Check_tree = Check_tree
module Check_plan = Check_plan
module Check_sim = Check_sim
module Check_collective = Check_collective
module Check_topology = Check_topology

val enabled : unit -> bool
(** True when [PEEL_CHECK] is set to 1/true/yes/on. *)

val assert_valid : what:string -> Diagnostic.t list -> unit
(** Raises [Failure] listing every [Error]-severity diagnostic;
    warnings and infos never raise. *)

val check_scenario :
  ?budget:int ->
  Peel_topology.Fabric.t ->
  source:int ->
  dests:int list ->
  Diagnostic.t list
(** The full lint battery for one multicast scenario: fabric links,
    the PEEL tree (with the Theorem 2.5 cost bound), the prefix send
    plan, the static rule table, and the ring / binary-tree baseline
    schedules for the same group.  On zoo fabrics the TOPO battery
    ({!Check_topology.check_scenario}) runs as well. *)
