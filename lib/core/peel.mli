(** PEEL — Prefix-Encoded Efficient Layering.

    The public facade of this reproduction of "One to Many: Closing the
    Bandwidth Gap in AI Datacenters with Scalable Multicast" (HotNets
    '25).  PEEL makes datacenter multicast practical with two pieces:

    - {b Trees}: [multicast_tree] builds the collective's distribution
      tree — provably optimal in a symmetric Clos (Lemma 2.1), and the
      [O(min(F,|D|))]-approximate layer-peeling greedy when links have
      failed (§2.3).
    - {b State}: {!Plan.build} compresses the downward fan-out into
      power-of-two prefix packets matched by [k-1] static TCAM rules
      per switch and a <8 B header (§3.2).

    Sub-modules re-export the underlying machinery for callers that
    need the pieces individually. *)

module Plan = Plan
(** Per-collective prefix packetization. *)

module Dataplane = Dataplane
(** Static-rule-table emulation of the switch pipeline. *)

module Tree = Peel_steiner.Tree
module Layer_peel = Peel_steiner.Layer_peel
module Symmetric = Peel_steiner.Symmetric
module Exact = Peel_steiner.Exact
module Cover = Peel_prefix.Cover
module Header = Peel_prefix.Header
module Rules = Peel_prefix.Rules
module Fabric = Peel_topology.Fabric
module Graph = Peel_topology.Graph

val multicast_tree :
  Fabric.t -> source:int -> dests:int list -> Tree.t option
(** The PEEL multicast tree for a group: the symmetric-optimal
    construction when every needed link is up, otherwise the
    layer-peeling greedy. [None] if a destination is unreachable. *)

val switch_rules : Fabric.t -> int
(** Static TCAM entries PEEL pre-installs per aggregation switch:
    [2^(m+1) - 1] over the fabric's ToR-id space ([k - 1] in a k-ary
    fat-tree). *)

val header_bytes : Fabric.t -> int
(** Per-packet header size for this fabric (see {!Plan.header_bytes_for}). *)

val state_table : Fabric.t -> Rules.table
(** The actual rule table a switch would hold. *)
