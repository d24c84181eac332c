(** Bandwidth accounting for logical (unicast) schedules — the
    machinery behind the paper's Figure 1 comparison, where Ring and
    Tree traverse core links up to 80% more than the multicast
    optimum. *)

open Peel_topology

val link_loads : Graph.t -> (int * int) list -> int array
(** [link_loads g hops] routes every [(src, dst)] pair over its
    (deterministic) shortest path and returns the per-directed-link
    traversal count, indexed by link id.  Raises [Invalid_argument] if
    some pair is disconnected. *)

val tree_loads : Graph.t -> Peel_steiner.Tree.t -> int array
(** Each tree link is traversed exactly once per message. *)

val total : Graph.t -> int array -> int
(** Sum of traversals over fabric links: NVLink-class links (bandwidth
    above [100e9] B/s) are excluded, since intra-server bandwidth is
    not the contended resource. *)

val core_load : Graph.t -> int array -> int
(** Traversals of links touching a Core or Spine switch only. *)

val overshoot : baseline:int -> optimal:int -> float
(** [(baseline - optimal) / optimal], e.g. 0.8 = 80% more traffic. *)
