(** Topology zoo: non-Clos fabrics the layer-peeling planner is
    measured on (experiment E21).

    The paper proves the peeling greedy exact on symmetric Clos
    (Lemma 2.1) and [O(min(F,|D|))] under asymmetry (Theorem 2.5); this
    module supplies the fabrics where neither lemma applies so the
    approximation ratio can be {e measured} against the exact Steiner
    oracle ({!Peel_steiner.Exact.oracle}, experiment E21):

    - {b abfattree} — F10's AB fat-tree: even ("type A") pods use the
      standard aggregation-to-core striping, odd ("type B") pods the
      transpose, so one core failure hits different aggregation indices
      in A and B pods.
    - {b VL2} — ToRs dual-homed to two aggregation switches; the
      aggregation and intermediate tiers form a complete bipartite
      graph (parameters [da]/[di] = aggregation/intermediate port
      counts, as in the VL2 paper).
    - {b Jellyfish} — a seeded random [r]-regular graph over [n]
      switches (configuration-model draw, rejecting self-loops,
      parallel edges and disconnected samples).
    - {b Xpander} — a seeded random [lift]-lift of the complete graph
      K[_(d+1)]: one random perfect matching between the copy sets of
      each base edge, giving a [d]-regular near-Ramanujan expander.

    Every generator returns a value carrying a {e layer annotation}:
    structural hop layers for the layered classes (endpoints 0, ToR 1,
    aggregation 2, core/intermediate 3) and the flat pseudo-layering
    (endpoints 0, all switches 1) for the expander classes, whose
    planner layers are the per-source BFS levels instead
    ({!Peel_steiner.Layer_peel.peel_general}'s default).  Generators
    validate their own output — a disconnected or non-layered fabric
    raises a descriptive [Invalid_argument] instead of failing deep
    inside [Paths] BFS.  Every link runs at 100 Gb/s (12.5e9 B/s) with
    500 ns latency.

    Randomized classes are deterministic in their [seed]: the same seed
    always yields the identical fabric, link ids included. *)

type cls = Abfattree | Vl2 | Jellyfish | Xpander

val cls_to_string : cls -> string
val all_classes : cls list

(** Generator parameters, kept on the value so invariant checks
    (TOPO002) can recompute expected sizes and degrees. *)
type params =
  | P_abfattree of { k : int; hosts_per_tor : int }
  | P_vl2 of { da : int; di : int; hosts_per_tor : int }
  | P_jellyfish of {
      switches : int;
      net_degree : int;
      hosts_per_tor : int;
      seed : int;
    }
  | P_xpander of {
      net_degree : int;
      lift : int;
      hosts_per_tor : int;
      seed : int;
    }

type t = {
  params : params;
  graph : Graph.t;
  pods : int;  (** > 1 only for abfattree *)
  tors : int array;
  tors_of_pod : int array array;
  hosts : int array;
  tor_of_host : int array;  (** dense by node id; -1 for non-hosts *)
  layer_of : int array;  (** structural layer annotation per node id *)
  layered : bool;
      (** true when [layer_of] is a real tier hierarchy (abfattree,
          VL2); false for the expanders' flat pseudo-layering *)
}

(** {1 Generators} *)

val abfattree :
  ?hosts_per_tor:int ->
  k:int ->
  unit ->
  t
(** AB fat-tree with [k] pods of [k/2] ToRs and [k/2] aggregation
    switches over [(k/2)^2] cores; [k] even, >= 4.  Default
    [hosts_per_tor] is [k/2].  Raises [Invalid_argument] on bad
    parameters or (defensively) invalid generated output. *)

val vl2 :
  ?hosts_per_tor:int ->
  da:int ->
  di:int ->
  unit ->
  t
(** VL2 with [di] aggregation switches ([da] ports each: half down to
    ToRs, half up), [da/2] intermediate switches and [da*di/4] ToRs,
    each dual-homed to aggregation switches [2i] and [2i+1] (mod
    [di]).  [da], [di] even, >= 2.  Default [hosts_per_tor] is 2. *)

val jellyfish :
  ?hosts_per_tor:int ->
  switches:int ->
  net_degree:int ->
  seed:int ->
  unit ->
  t
(** Seeded random [net_degree]-regular graph over [switches] switches.
    Requires [2 <= net_degree < switches] and [switches * net_degree]
    even.  Default [hosts_per_tor] is 1.  Raises [Invalid_argument]
    if no connected simple regular graph is found for the seed (500
    rejection-sampling attempts). *)

val xpander :
  ?hosts_per_tor:int ->
  net_degree:int ->
  lift:int ->
  seed:int ->
  unit ->
  t
(** Seeded random [lift]-lift of K[_(net_degree+1)]:
    [(net_degree+1)*lift] switches, each of inter-switch degree
    [net_degree].  Requires [net_degree >= 2], [lift >= 1].  Default
    [hosts_per_tor] is 1. *)

(** {1 Validation}

    Generators run these on their own output; {!Peel_check} re-runs
    them as the TOPO001/TOPO002 diagnostics (e.g. after fabric
    corruption).  Both use {e structural} adjacency — link up/down
    state (failures) never trips them. *)

val layering_violations : t -> string list
(** Layering well-formedness: endpoints on layer 0 attached only to
    switches, switches on layers >= 1, contiguous layer values,
    structural connectivity, and — for layered classes — every edge
    crossing exactly one layer with every layer >= 2 node wired to the
    layer below.  Empty means well-formed (TOPO001). *)

val invariant_violations : t -> string list
(** Generated degree/size invariants recomputed from [params]: node
    counts per tier and the exact structural degree of every node
    (TOPO002). *)

(** {1 Accessors} *)

val cls : t -> cls

val layer_of : t -> int -> int
(** Structural layer of a node (0 = endpoints). *)

val num_layers : t -> int
(** [1 + max layer]: 4 for the layered classes, 2 for expanders. *)

val switches_at_layer : t -> int -> int array
(** Switch node ids on a layer, ascending. *)

val inter_switch_duplex_links : t -> int array
(** One duplex id per switch-to-switch cable — the failure (and
    reconfiguration) domain. *)

val describe : t -> string
(** One-line human description, e.g.
    ["zoo jellyfish n=8 r=3 seed=7 (16 hosts)"]. *)

(** {1 Reconfiguration}

    The optically-reconfigurable variant (Multicasting Optical
    Reconfigurable Switch, PAPERS.md): per epoch the optical layer
    enables all but a "dark" fraction of the inter-switch cables, and
    the dark set moves between epochs.  The schedule is expressed as
    fail/recover deltas over duplex link ids, exactly the currency of
    the E16 {!Peel_sim.Fault} machinery ([Fault.of_list] on the
    flattened events), so replanning via [repeel]/[splice] competes
    against the reconfiguration gain in the same simulator. *)

module Reconfig : sig
  type epoch = {
    at : float;  (** absolute activation time, seconds *)
    fail : int list;  (** duplex ids going dark at [at] *)
    recover : int list;  (** duplex ids coming back up at [at] *)
  }

  val schedule :
    t ->
    rng:Peel_util.Rng.t ->
    epochs:int ->
    period:float ->
    fraction:float ->
    epoch list
  (** [epochs] dark-set draws, one every [period] seconds starting at
      time 0, each darkening [fraction] of the inter-switch cables
      while provably keeping all hosts connected (up to 100 retries
      per epoch; raises [Failure] otherwise).  Deltas are relative to
      the previous epoch's dark set (epoch 0 against the fully-lit
      fabric).  The fabric's link state is left untouched — callers
      apply epochs via {!Peel_topology.Graph.fail_link} /
      [recover_link] or a [Fault] schedule.  Raises
      [Invalid_argument] unless [epochs >= 1], [period > 0] and
      [0 <= fraction < 1]. *)
end
