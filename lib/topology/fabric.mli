(** Unified view over every fabric flavour the repository evaluates.

    Upper layers (Steiner trees, the prefix engine, the simulator) are
    written against this interface so each algorithm runs unchanged on a
    fat-tree, a leaf–spine, a rail-optimized fabric or any topology-zoo
    fabric ({!Zoo}).  Single-pod fabrics (leaf–spine, rail, the flat zoo
    classes) are treated as one pod whose "ToRs" are the switches the
    endpoints attach to. *)

type t = Ft of Fat_tree.t | Ls of Leaf_spine.t | Rl of Rail.t | Zo of Zoo.t

val fat_tree :
  ?hosts_per_tor:int ->
  ?gpus_per_host:int ->
  k:int ->
  unit ->
  t

val leaf_spine :
  ?gpus_per_host:int ->
  spines:int ->
  leaves:int ->
  hosts_per_leaf:int ->
  unit ->
  t

val rail :
  rails:int ->
  groups:int ->
  servers_per_group:int ->
  spines:int ->
  unit ->
  t
(** Rail-optimized fabric (§2.1 future work): GPU [r] of every server
    attaches to its group's rail-[r] ToR; rail ToRs connect to all
    spines. One flat pod for prefix addressing. *)

val of_zoo : Zoo.t -> t
(** Wrap a topology-zoo fabric ({!Zoo.abfattree}, {!Zoo.vl2},
    {!Zoo.jellyfish}, {!Zoo.xpander}).  The abfattree keeps its real
    pods (pod prefixes work as on a fat-tree); the flat classes are one
    pod, like a leaf–spine. *)

val graph : t -> Graph.t
val gpus : t -> int array
val hosts : t -> int array
val tors : t -> int array

val endpoints : t -> int array
(** The nodes collectives run between: GPUs when present, hosts
    otherwise. *)

val host_of_gpu : t -> int -> int

val endpoint_host : t -> int -> int
(** The host NIC serving an endpoint (identity for a host node). *)

val attach_tor : t -> int -> int
(** ToR/leaf switch serving an endpoint (GPU or host). *)

val pods : t -> int
val tors_per_pod : t -> int

val pod_of_tor : t -> int -> int
val tor_idx_in_pod : t -> int -> int
(** Identifier of a ToR within its pod — the address space the prefix
    engine encodes. *)

val tors_of_pod : t -> int -> int array

val fail_random :
  t ->
  rng:Peel_util.Rng.t ->
  tier:[ `Tor_up | `Agg_up | `All ] ->
  fraction:float ->
  unit ->
  int list
(** Fail [fraction] of the tier's duplex links uniformly at random;
    returns the failed duplex ids.  The draw is retried (up to 100
    times) until all hosts remain mutually reachable; raises [Failure]
    if that proves impossible.
    Previously injected failures are untouched. *)

val recover_link : t -> int -> unit
(** Bring a duplex pair (given either direction's id) back up —
    [Graph.recover_link] on the fabric's graph, the undo of a
    [fail_random] pick. *)

val describe : t -> string
(** One-line human description, e.g. "fat-tree k=8 (128 hosts, 1024 gpus)". *)

(** {1 Introspection}

    Structural views the topology zoo and the experiment harness share,
    so callers never recount tiers or endpoints by hand. *)

val num_layers : t -> int
(** [1 + max layer]: 4 on a fat-tree/abfattree/VL2, 3 on leaf–spine and
    rail fabrics, 2 on the expander classes. *)

val switches_at_layer : t -> int -> int array
(** Switch node ids on a structural layer, ascending; empty for layers
    holding no switches. *)

val num_endpoints : t -> int
(** [Array.length (endpoints t)] — the number of nodes collectives run
    between. *)
