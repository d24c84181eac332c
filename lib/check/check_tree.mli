(** Static checks over multicast trees ({!Peel_steiner.Tree}).

    Codes:
    - [TREE001] root is not the collective's source
    - [TREE002] a parent edge is out of range, runs the wrong way, or
      uses a link that is down in the graph
    - [TREE003] a destination is not spanned (or is unreachable)
    - [TREE004] the tree is not a tree: a member is unreachable from
      the root or reached twice over child edges
    - [TREE005] tree cost exceeds the Theorem 2.5 envelope
      [min(F, |D|) * max(OPT_sym, F)] ({!envelope}), [F] the farthest
      hop layer on the graph as it stands and [OPT_sym] the Lemma 2.1
      optimum of the failure-free fabric.  An error when every link is
      up, where that is OPT; a warning when one is down, where it only
      bounds OPT below and the tree may still be optimal
    - [TREE006] a replanned tree rewired a surviving binding: a member
      of the previous tree still connected to the root over up links
      was kept but given a different parent edge (or none) — the
      re-peel contract is that delivered subtrees keep their state *)

open Peel_topology

val check :
  ?fabric:Fabric.t ->
  Graph.t ->
  Peel_steiner.Tree.t ->
  source:int ->
  dests:int list ->
  Diagnostic.t list
(** Structural checks against the graph; when [fabric] is supplied the
    Theorem 2.5 cost bound is also checked ([TREE005]), against
    max({!symmetric_lower_bound}, F).  Reads link state and never
    writes it. *)

val check_splice :
  Graph.t ->
  prev:Peel_steiner.Tree.t ->
  tree:Peel_steiner.Tree.t ->
  source:int ->
  dests:int list ->
  Diagnostic.t list
(** The structural checks of {!check} (no cost bound) on the
    post-failure graph, plus the
    splice invariant ([TREE006]): every member of [prev]'s surviving
    prefix (reachable from the root over up links) that [tree] keeps
    must keep its exact parent edge.  Pruning a survivor that no longer
    feeds a destination is allowed; rewiring one is not. *)

val symmetric_lower_bound :
  Fabric.t -> source:int -> dests:int list -> int option
(** Lemma 2.1 optimum cost for the group on the failure-free fabric;
    [None] when the symmetric construction does not apply (a zoo fabric
    with more than one destination rack, a member that is not an
    endpoint, or a link the construction needs that the fabric does not
    have).  {!Peel_steiner.Symmetric.cost_lower_bound} under a
    [Some]/[None]: it checks each binding against the fabric's links
    whether up or down, so it reads no link state and writes none, and
    a call costs O(|D| log |D|) in the group, not the fabric. *)

val envelope : far:int -> ndests:int -> opt:int -> int
(** Theorem 2.5's cost envelope [max 1 (min far ndests) * max 1 opt]
    for the farthest hop layer [far], [ndests] destinations and the
    optimum [opt]; [envelope ~opt:1] is the factor alone.  TREE005,
    TOPO004 and the service's splice gate all bound through it. *)
