(** The two-stage handoff (§3.3), end to end: each group launches
    immediately on its budgeted static prefix rules — over-covered
    racks receive every chunk, and that waste is real link load — and
    switches to its exact per-group tree mid-run, the moment the
    controller's installs land.  Subsequent chunks change destination
    sets on the fly; an eviction flips the group back.

    Three schemes share one group schedule:

    - [Peel_static]: stage one forever (the refinement-off baseline),
    - [Peel_refined]: the full two-stage handoff,
    - [Ipmc]: per-group rules only — no prefix fallback exists, so
      every group stalls for its installs before the first chunk
      (classic IP-multicast, with unbounded switch state; E14 prices
      that state). *)

open Peel_topology
open Peel_sim
open Peel_workload

(** The three contenders sharing one group schedule (see the module
    header). *)
type scheme = Peel_static | Peel_refined | Ipmc

val all_schemes : scheme list
(** Every scheme, in table order. *)

val scheme_to_string : scheme -> string
(** CLI/table name, e.g. ["peel-refined"]. *)

val scheme_of_string : string -> scheme option
(** Inverse of {!scheme_to_string}; [None] on an unknown name. *)

type report = {
  r_gid : int;
  r_ndests : int;
  r_chunks : int;
  mutable r_static_chunks : int;   (** released on prefix rules *)
  mutable r_refined_chunks : int;  (** released on the exact tree *)
  mutable r_deliveries : int;
  mutable r_overcover_bytes : float;
      (** bytes landed on racks with no members (static stage only) *)
}

type outcome = {
  run : Peel_collective.Runner.outcome;
  reports : report list;  (** ascending group id *)
  controller : Controller.t;
  handoffs : Check_ctrl.handoff list;
  fingerprint : string;   (** {!Check_ctrl.fingerprint} of this run *)
}

val run :
  ?chunks:int ->
  ?cfg:Controller.config ->
  ?trace:Trace.t ->
  Fabric.t ->
  scheme ->
  Spec.group list ->
  outcome
(** Simulate the group schedule under [scheme].  Deterministic for a
    fixed fabric, config and schedule (CTRL004).  Under [PEEL_CHECK=1]
    asserts CTRL001 per group at launch and CTRL002/003/005 on the
    outcome. *)

val total_overcover_bytes : outcome -> float
(** Bytes landed on memberless racks, summed over every group. *)

val static_chunks : outcome -> int
(** Chunks released on static prefix rules, summed over every group. *)

val refined_chunks : outcome -> int
(** Chunks released on exact per-group trees, summed over every
    group. *)
