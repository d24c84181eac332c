(** NCCL-style double binary tree broadcast (the algorithm the paper's
    citation [3] actually describes).

    Two complementary binary trees are built over the members; each
    carries half of the chunks.  A rank that is interior in one tree is
    a leaf in the other, so per-rank send load is ~1 message instead of
    the plain binary tree's 2 — the fix NCCL 2.4 introduced.  The
    construction follows the classic scheme: tree A is the binary tree
    over positions 1..n-1 built from the bit structure of the rank,
    tree B is the same tree over positions shifted by one, and the
    source (position 0) feeds both roots. *)

type t = {
  order : int array;             (** members, source at position 0 *)
  edges_a : (int * int) list;    (** (parent, child) sends, tree A *)
  edges_b : (int * int) list;    (** (parent, child) sends, tree B *)
}

val schedule : Peel_topology.Fabric.t -> source:int -> members:int list -> t
(** Same contract as {!Ring.schedule}. *)

val max_fanout : t -> int
(** Largest number of children any member has in one tree (<= 2).
    Test oracle: the schedule tests check both trees' shape. *)

val send_load : t -> int -> int
(** Total sends a member performs across both trees.
    Test oracle: the schedule tests check that the two trees balance
    sends. *)
