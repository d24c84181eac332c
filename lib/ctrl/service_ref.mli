(** Reference implementation of the multicast service controller — the
    PR 8 Hashtbl/list code path, kept verbatim as the differential
    oracle for {!Service}'s slot-table/memoization fast path.

    The QCheck battery and E22 replay random streams through both
    implementations and require bit-identical SVC005 fingerprints; the
    E22 SLO section also reports the oracle's events/s as the speedup
    baseline.  Keep this module semantically frozen: fixes that change
    decision logs belong in {!Service} (and invalidate committed
    fingerprints deliberately), not here.

    Where {!Refine} replays a fixed batch of groups through the packet
    simulator, [Service] consumes an unbounded {!Peel_workload.Stream}
    of [create]/[join]/[leave]/[send]/[depart] requests and keeps the
    control-plane state — trees, prefix plans, TCAM occupancy —
    current at every event:

    - {b incremental planning}: membership deltas go through
      {!Peel_steiner.Layer_peel.splice}, which splices one
      subscriber's subtree in or out; the service falls back to a full
      peel only when the splice breaks tree validity or leaves the
      Theorem 2.5 cost envelope (both are counted, so the
      delta-planning hit rate is an SLO);
    - {b batched, sharded installs}: pending installs flush through
      {!Peel_compile.compile} once [batch] requests queue up or
      [install_delay] elapses, sharded across {!Peel_util.Pool}
      domains by source pod — the fan-out is bit-deterministic at any
      worker count, the SVC005 replay contract;
    - {b admission/eviction}: exact per-group entries claim bounded
      {!Tcam} space; under saturation the [admission] policy either
      evicts victims (policy-chosen, they degrade to the unicast
      fallback path) or denies the newcomer.  Groups whose entries are
      pending or gone ride unicast — one copy per subscriber.

    Determinism: for a fixed config, fabric and event stream the
    decision log is byte-identical at any pool size; wall-clock SLOs
    (plan latency percentiles, events/sec) are measured but excluded
    from the {!outcome} fingerprint. *)

open Peel_topology
open Peel_workload

(** What happens when an install hits a full switch: [Evict] displaces
    policy-chosen victims, [Deny] refuses the newcomer (all-or-nothing,
    no partial entry sets). *)
type admission = Evict | Deny

val admission_to_string : admission -> string
(** ["evict"] / ["deny"], as accepted by the CLI.
    Test oracle: kept with the rest of the reference service. *)

val admission_of_string : string -> admission option
(** Inverse of {!admission_to_string}; [None] on an unknown name.
    Test oracle: kept with the rest of the reference service. *)

type config = {
  capacity : int;        (** per-switch TCAM entries; [<= 0] = no multicast
                             installs at all (everything rides unicast) *)
  policy : Tcam.policy;  (** eviction-victim selection *)
  admission : admission;
  batch : int;           (** pending installs per compile flush (>= 1) *)
  install_delay : float; (** flush the backlog after this long even if the
                             batch is not full, seconds of stream time *)
  budget : int option;   (** prefix budget for the compiled static plans *)
  salt : int option;     (** {!Peel_steiner.Layer_peel.build} tie salt *)
}

val default_config : config
(** 1024 entries, LRU, [Evict], batch 8, 2 ms install delay,
    budget-1 prefix plans. *)

(** Where a group's traffic rides right now: waiting for its install
    batch ([Pending], unicast), on its exact entries ([Installed],
    multicast), or displaced/denied ([Fallback], unicast). *)
type stage = Pending | Installed | Fallback

val stage_to_string : stage -> string
(** Test oracle: kept with the rest of the reference service. *)

type gstate = {
  sg_gid : int;
  sg_source : int;
  mutable sg_members : int list;   (** current membership, ascending *)
  mutable sg_tree : Peel_steiner.Tree.t;  (** current refined tree *)
  mutable sg_switches : int list;  (** non-ToR switches of [sg_tree] —
                                       the exact-entry set *)
  mutable sg_stage : stage;
  mutable sg_replans : int;        (** membership deltas absorbed *)
  sg_dist : int array;             (** cached BFS distances from the source *)
}
(** Mutable so the SVC corruption tests can seed faults; production
    code treats it as read-only outside this module. *)

type slo = {
  events : int;            (** stream events processed *)
  creates : int;
  joins : int;
  leaves : int;
  sends : int;
  departs : int;
  delta_repeels : int;     (** membership deltas absorbed by splicing *)
  full_repeels : int;      (** full peels: creations + splice fallbacks *)
  splice_fallbacks : int;  (** deltas where the splice was rejected *)
  batches : int;           (** compile flushes *)
  installs : int;          (** TCAM entries ever installed *)
  evictions : int;         (** entries displaced under [Evict] *)
  denials : int;           (** groups refused under [Deny] *)
  compiled_entries : int;  (** prefix-table entries lowered by the compiler *)
  multicast_chunks : int;  (** sends released on exact entries *)
  unicast_chunks : int;    (** sends released on the fallback path *)
  multicast_link_bytes : float;  (** link bytes of the multicast sends *)
  unicast_link_bytes : float;    (** link bytes of the unicast sends *)
  max_backlog : int;       (** deepest install backlog at any flush *)
  final_backlog : int;     (** backlog depth when the stream stopped *)
  plan_p50_s : float;      (** median planning latency (wall seconds) *)
  plan_p99_s : float;
  plan_max_s : float;
  events_per_sec : float;  (** sustained event-processing throughput *)
  wall_s : float;
}
(** Service-side SLOs.  Everything above [plan_p50_s] is deterministic
    for a fixed seed/config; the wall-clock tail is machine-dependent
    and excluded from replay fingerprints and the guarded BENCH
    section. *)

type outcome = {
  o_cfg : config;
  o_fabric : Fabric.t;
  o_tcam : Tcam.t option;             (** [None] when [capacity <= 0] *)
  o_groups : (int, gstate) Hashtbl.t; (** groups live at stream end *)
  o_departed : (int, unit) Hashtbl.t; (** every group that departed *)
  o_pending : int list;               (** final backlog (drained after
                                          measurement; see {!slo}) *)
  o_slo : slo;
  o_fingerprint : string;             (** FNV-1a decision-log digest —
                                          the SVC005 replay witness *)
}

val run :
  ?cfg:config -> ?jobs:int -> Fabric.t -> events:int -> Stream.t -> outcome
(** Consume [events] events from the stream and return the quiescent
    state (the backlog is flushed after the final event; its depth at
    stop time is recorded first).  [jobs] sizes the install-compile
    pool (default {!Peel_util.Pool.default_jobs}); the outcome is
    bit-identical for every value.  Raises [Invalid_argument] on a
    non-positive [batch] or negative [install_delay]. *)
