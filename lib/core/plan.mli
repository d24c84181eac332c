(** PEEL's per-collective send plan: hierarchical power-of-two prefix
    packetization (paper §3.2).

    The destination set of a collective is summarized per pod as the
    set of member ToR identifiers.  Pods sharing the same ToR signature
    are grouped and cover-set-decomposed in the pod identifier space,
    while the shared ToR set is decomposed in the ToR identifier space
    — so one packet addresses a power-of-two block of pods crossed with
    a power-of-two block of racks.  The sender emits one message copy
    per packet; core and aggregation switches replicate each copy using
    only the pre-installed static prefix rules.

    With the default exact covers a plan never over-covers: redundant
    traffic appears only when a packet [budget] forces coarser
    prefixes, which is the §3.4 fragmentation trade-off. *)

open Peel_topology
open Peel_prefix

type packet = {
  pod_prefix : Cover.prefix option;
      (** [None] on single-pod fabrics (leaf–spine) *)
  tor_prefix : Cover.prefix;
  pods : int list;          (** pod numbers this packet reaches *)
  tors : int list;          (** ToR node ids reached (existing racks only) *)
  endpoints : int list;     (** member endpoints delivered to *)
  waste_tors : int list;    (** covered racks with no members (discard) *)
}

type t = {
  source : int;
  dests : int list;
  packets : packet list;
  header_bytes : int;       (** per-packet header size for this fabric *)
}

val tor_id_bits : Fabric.t -> int
(** Width of the in-pod ToR identifier space the prefix engine
    addresses: [ceil_log2 (max 2 tors_per_pod)].  The single source of
    truth for every layer that builds or replays prefix tables. *)

val pod_id_bits : Fabric.t -> int
(** Width of the pod identifier space (core-tier match field). *)

val build : ?budget:int -> Fabric.t -> source:int -> dests:int list -> t
(** [budget] caps the number of ToR prefixes per pod-signature group
    (default: unlimited, i.e. exact covers); [Some b] with [b < 1]
    raises [Invalid_argument], even for an empty group.

    Cost: one stable sort of the destinations by a (pod, ToR id) key
    column, so each covered rack's endpoints are read as one run; one
    sort of the pods by ToR signature to group them; then per packet a
    single pass over its covered racks.  O(|D| log |D|) plus the covers
    and the covered racks, with no hash tables. *)

val num_packets : t -> int

val waste_tor_count : t -> int
(** Total over-covered racks across packets — each receives the whole
    message and discards it. *)

val header_bytes_for : Fabric.t -> int
(** Per-packet header bytes: pod prefix field (multi-pod fabrics) plus
    ToR prefix field, each [bits + ceil(log2(bits+1))] rounded together
    to whole bytes. *)

val packet_tree :
  Fabric.t -> source:int -> packet -> Peel_steiner.Tree.t option
(** The multicast tree one packet induces, built with the layer-peeling
    greedy so it routes around failures; spans the packet's member
    endpoints and its over-covered racks.  [None] if unreachable. *)

val packet_trees :
  Fabric.t -> source:int -> dests:int list -> Peel_steiner.Tree.t list
(** Build a plan and return every packet's tree, plan order — the
    per-packet forwarding state both the sequential broadcast scheme
    and the sharded flattener ({!Peel_collective.Par}) replay.
    Unreachable packets are dropped (an empty list means no
    destination is reachable). *)

val validate : Fabric.t -> t -> (unit, string) result
(** Cross-checks the plan: every destination is covered by exactly one
    packet, and waste racks carry no members.
    Test oracle: the plan tests check every built plan with it. *)
