(** Multicast-as-a-service: a long-running open-loop controller
    (ROADMAP item 2, Elmo's cloud framing).

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
    - {b batched installs}: pending installs flush once [batch]
      requests queue up or [install_delay] elapses; a flush counts the
      entries {!Peel_compile.compile} would lower, per source pod, and
      claims TCAM space group by group in batch order;
    - {b admission/eviction}: exact per-group entries claim bounded
      {!Tcam} space; under saturation the [admission] policy either
      evicts victims (policy-chosen, they degrade to the unicast
      fallback path) or denies the newcomer.  Groups whose entries are
      pending or gone ride unicast — one copy per subscriber.

    The million-group fast path: group state lives in an arena-backed
    SoA {!Group_table} with member bitsets and recycled slots; the TCAM
    stores its switches in per-pod shards ({!tcam_shard_of}); and full
    peels, prefix plans' rule footprints and Theorem 2.5 lower bounds
    are memoized by (source, member set) — identical groups, the common
    case in the multi-tenant Poisson mix, skip [Layer_peel] and
    [Plan.build] entirely.  A memo hit returns a value identical to
    recomputing, so cache-on and cache-off runs produce the same
    decision log; the differential oracle for all of this is
    {!Service_ref}, the PR 8 implementation kept verbatim.  Everything
    runs on the calling domain.

    Determinism: for a fixed config, fabric and event stream the
    decision log is byte-identical from run to run and under either
    cache setting; wall-clock SLOs (plan latency percentiles,
    events/sec) are measured but excluded from the {!outcome}
    fingerprint. *)

open Peel_topology
open Peel_workload

(** What happens when an install hits a full switch: [Evict] displaces
    policy-chosen victims, [Deny] refuses the newcomer (all-or-nothing,
    no partial entry sets). *)
type admission = Evict | Deny

val admission_to_string : admission -> string
(** ["evict"] / ["deny"], as accepted by the CLI. *)

val admission_of_string : string -> admission option
(** Inverse of {!admission_to_string}; [None] on an unknown name. *)

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
  use_cache : bool;      (** memoize by (source, member set), in three
                             {!Peel_steiner.Memo}s: full peels (the tree
                             and its entry switches), prefix plans'
                             rule footprints ({!Peel_compile.Compile.footprint},
                             not the plans) and symmetric Theorem 2.5
                             lower bounds (one int); behaviour-neutral,
                             disable to measure the cold path *)
  cache_capacity : int;  (** entries per memo before insertions are
                             deterministically skipped (>= 1) *)
  gc_space_overhead : int option;
      (** when set, [run] raises [Gc.space_overhead] to this value for
          the duration of the run (restored on exit).  Million-group
          runs keep a ~100 Mw live heap that the default overhead
          re-marks constantly for little reclaim; GC timing never
          reaches the decision log, so fingerprints are unchanged. *)
}

val default_config : config
(** 1024 entries, LRU, [Evict], batch 8, 2 ms install delay,
    budget-1 prefix plans, caching on with 65536 entries per cache,
    GC untouched. *)

(** Where a group's traffic rides right now: waiting for its install
    batch ([Pending], unicast), on its exact entries ([Installed],
    multicast), or displaced/denied ([Fallback], unicast).  The
    definition lives in {!Group_table}; re-exported for callers. *)
type stage = Group_table.stage = Pending | Installed | Fallback

val stage_to_string : stage -> string

(** One planning memo's traffic over a run; all zero with [use_cache]
    off. *)
type memo_counts = {
  hits : int;
  misses : int;
  entries : int;  (** entries held when the stream stopped *)
}

type slo = {
  events : int;            (** stream events processed *)
  creates : int;
  joins : int;
  leaves : int;
  sends : int;
  departs : int;
  delta_repeels : int;     (** membership deltas absorbed by splicing *)
  full_repeels : int;      (** full peels: creations + splice fallbacks
                               (memo hits included — a hit is a peel
                               the service answered from cache) *)
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
  cache_hits : int;        (** tree + plan + cost-bound memo hits (0 with
                               caching off) *)
  cache_misses : int;      (** tree + plan + cost-bound memo misses *)
  tree_memo : memo_counts;   (** full peels: the tree and its entry
                                 switches *)
  plan_memo : memo_counts;   (** prefix plans' rule footprints *)
  bound_memo : memo_counts;  (** symmetric Theorem 2.5 lower bounds *)
  groups_live : int;       (** groups alive when the stream stopped *)
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
  o_groups : Group_table.t;           (** groups live at stream end *)
  o_departed : (int, unit) Hashtbl.t; (** every group that departed *)
  o_pending : int list;               (** final backlog (drained after
                                          measurement; see {!slo}) *)
  o_slo : slo;
  o_fingerprint : string;             (** FNV-1a decision-log digest —
                                          the SVC005 replay witness *)
}

val run :
  ?cfg:config ->
  ?jobs:int ->
  ?trace:Peel_sim.Trace.t ->
  Fabric.t ->
  events:int ->
  Stream.t ->
  outcome
(** Consume [events] events from the stream and return the quiescent
    state (the backlog is flushed after the final event; its depth at
    stop time is recorded first).  The run uses the calling domain
    only; [jobs] is checked to be at least 1 and has no other effect.
    The outcome is bit-identical for either [use_cache] setting.
    [trace] (default {!Peel_sim.Trace.null}) receives the planning-
    cache hit/miss counters.  Raises [Invalid_argument] on a negative
    [events], a [jobs] below 1, a non-positive [batch], a negative
    [install_delay], a non-positive [cache_capacity] or a [budget] of
    [Some b] with [b < 1], before the first event. *)

val tcam_shard_of : Graph.t -> int -> int
(** [tcam_shard_of g sw] is switch [sw]'s shard in the service's
    8-shard TCAM: its pod where it has one, else its index within its
    kind (leaf-spine spines and zoo cores carry pod [-1]), modulo 8. *)
