(** Unicast binary-tree schedule (the paper's "Tree" baseline, after
    NCCL's tree topologies).

    Members in locality order are arranged as an implicit heap rooted
    at the source: position [i] forwards to positions [2i+1] and
    [2i+2].  Interior nodes therefore send the message twice over their
    own NIC, which is exactly the bandwidth overshoot Figure 1 of the
    paper illustrates. *)

open Peel_topology

type t = {
  order : int array;          (** members, source at position 0 *)
  edges : (int * int) list;   (** (parent, child) logical sends *)
  depth : int;                (** levels below the root *)
}

val schedule : Fabric.t -> source:int -> members:int list -> t
(** Same contract as {!Ring.schedule}. *)

val children : t -> int -> int list
(** Logical children of a member (by node id).  Test oracle: the
    schedule tests check the tree's fanout with it. *)
