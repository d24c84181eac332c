(** Multicast (Steiner) trees over a fabric graph.

    A tree is rooted at the multicast source; every other member has
    exactly one parent edge pointing toward the root.  Edges are
    directed graph links (root-to-leaf direction), so a tree doubles as
    the exact set of links a multicast packet traverses.

    A tree is stored in arrays sized by its members, never by the
    fabric: the members sorted ascending, aligned parent and link
    columns, and the children in CSR form.  [mem], [parent] and
    [children] binary-search the members (O(log members)); [members],
    [edges] and [link_ids] are O(members). *)

open Peel_topology

type t

val root : t -> int

val of_parents : Graph.t -> root:int -> parents:(int * (int * int)) list -> t
(** [of_parents g ~root ~parents] builds a tree from
    [(node, (parent, link_id))] bindings.  The link must run
    parent->node.  Raises [Invalid_argument] on inconsistent input
    (wrong link endpoints, duplicate binding for a node, a binding for
    the root, or a parent chain that does not reach the root or
    cycles).  Costs O(b log b) in the [b] bindings, whatever their
    order. *)

val derive :
  Graph.t -> prev:t -> fresh:(int * (int * int)) list -> dests:int list -> t
(** [derive g ~prev ~fresh ~dests] is the tree a membership delta
    leaves: the union of [prev]'s bindings and the [fresh]
    [(node, (parent, link_id))] bindings, pruned to the root and the
    members on some destination's chain to it.  It equals
    {!of_parents} over that pruned union: same root, members and
    {!edges}.  A destination that is neither a member of [prev] nor
    fresh is skipped, as is the root; [dests] may repeat a node.

    [prev] is valid by construction, so only the fresh bindings are
    checked, by the rules {!of_parents} applies (its messages, prefixed
    [Tree.derive]): a fresh binding for the root, for a node [prev]
    or an earlier fresh binding already binds, over a link that does
    not run parent->node, or whose parent chain cycles or ends outside
    [prev] raises [Invalid_argument].  Every fresh binding is checked,
    kept or not.

    Costs O(m + f² + (d + f) log m) for [m] members of [prev], [f]
    fresh bindings and [d] destinations, and allocates the result's
    columns plus one int column of m + 2f slots.  A splice's climb
    binds a handful of nodes, so the cost follows [prev]. *)

val members : t -> int list
(** All nodes in the tree (root included), ascending. *)

val mem : t -> int -> bool

val parent : t -> int -> (int * int) option
(** [(parent_node, link_id)], [None] for the root or non-members. *)

val children : t -> int -> (int * int) list
(** [(child_node, link_id)] pairs, ascending child order. *)

val edges : t -> (int * int * int) list
(** [(parent, child, link_id)] triples, ascending child order. *)

val link_ids : t -> int list
(** The directed links of the tree (one per non-root member), in
    descending member order. *)

val cost : t -> int
(** Number of edges = number of directed links used. *)

val switch_members : Graph.t -> t -> int list
(** Members that are switches (ToR/Agg/Core/Spine). *)

val depth : t -> int -> int
(** Hops from the root to a member; raises [Not_found] for
    non-members.
    Test oracle: the tree tests compare it against a parent-array
    model. *)

val max_depth : t -> int
(** Deepest member's hop count from the root (0 for a root-only tree) —
    the store-and-forward latency driver. *)

val path_from_root : t -> int -> int list
(** Node ids from the root down to the given member, inclusive.
    Test oracle: the tree tests compare it against a parent-array
    model. *)

val validate : Graph.t -> t -> dests:int list -> (unit, string) result
(** Structural check: every non-root member's parent edge exists in the
    graph, runs parent->child, and is up; parent chains terminate at the
    root (no cycles); every destination is a member. *)
