(** The paper's layer-peeling greedy Steiner heuristic (§2.3).

    Hop layers are concentric BFS rings around the source.  Starting
    from the outermost ring and peeling inward, every tree member on
    layer [i+1] that lacks a parent is attached by greedily adding the
    layer-[i] node that covers the most still-unattached members —
    a set-cover greedy constrained to the layered Clos structure.  The
    result is a loop-free multicast tree with approximation factor
    [O(min(F, |D|))] (Theorem 2.5), computed in polynomial time.

    The algorithm only uses links that are currently up, so it applies
    unchanged to asymmetric (failed) fabrics.

    {b Cost: the group, not the fabric.}  Every function below runs one
    kernel.  Its hop labels come from a BFS over up links that stops
    once the last destination is labelled ({!Peel_topology.Graph.bfs_reach}): every
    node closer to the source than the farthest destination then
    carries its exact label, and a node the search never reached cannot
    parent anyone.  Only tree members (source, destinations, seeds and
    the switches the greedy picks) are bucketed by layer, coverage
    counts are updated as members attach, and the bindings are read
    back from the list of nodes the call touched.  A call therefore
    costs the search plus O(tree · degree) and allocates O(tree); a
    pod-local group on a k=32 fat-tree labels under 5 % of the fabric.
    A group whose destinations span the whole fabric (cross-pod groups
    on a large fat-tree) still labels most of it.

    The node-indexed state lives in a scratch reused across calls: one
    per domain, cleared at O(touched) on entry (so a call that raised,
    or links that failed in between, leave nothing stale), and held
    only weakly, so a major collection that finds it idle frees it and
    it never counts as live heap.  Calls on different domains are
    independent. *)

open Peel_topology

val build : ?salt:int -> Graph.t -> source:int -> dests:int list -> Tree.t option
(** [None] when some destination is unreachable from the source.
    Deterministic: greedy ties break toward the lowest node id, or — when
    [salt] is given — toward the lowest hash of (node, salt).  Different
    salts therefore yield different (equally sized) trees in symmetric
    fabrics, the edge diversity multi-tree striping needs (§2.3's
    multicast-vs-multipath question); two candidates with the same
    salted hash go to the lower node id.  [dests] may repeat a node or
    contain the source. *)

val peel_general :
  ?salt:int ->
  ?layers:int array ->
  Graph.t ->
  source:int ->
  dests:int list ->
  Tree.t option
(** The outside-in greedy over an {e arbitrary} layered graph — the
    topology-zoo generalization.  [layers] labels every node with a
    layer; candidate parents of a member are its up-link in-neighbors
    on any strictly lower layer (the Clos specialization where every
    hop crosses exactly one ring is no longer assumed).  When [layers]
    is omitted the kernel's bounded BFS labels are used, and the result
    is {e bit-identical} to {!build} — on a Clos
    an up neighbor is never more than one BFS ring closer, so "any
    lower layer" degenerates to "exactly the previous ring".

    A custom layering must be rooted: the source (and only the source)
    on layer 0, no negative labels ([Graph.unreachable] excludes a
    node); violations raise [Invalid_argument], as does a layering
    that strands a member with no lower-layer parent over up links.
    [None] when a destination is unreachable (excluded).  Any
    monotone relabeling of the BFS layers yields the same tree.
    Checking a custom layering costs O(nodes); the peel itself only
    reads the labels of members and their neighbours.  Corpus knob:
    the pinned tree-digest corpus in the tests sweeps [layers]. *)

val port_set_rules : Graph.t -> Tree.t list -> (int * int) list
(** [(switch, rules)] per switch appearing in any tree: the number of
    {e distinct} child-port sets the switch replicates to across the
    family — the rule currency on fabrics with no pod/ToR prefix
    structure, where §3's [k-1] static prefix rules degrade to one
    rule per port set.  Sorted by switch id; switches with no
    replication fan-out are omitted. *)

val repeel :
  ?salt:int -> Graph.t -> prev:Tree.t -> source:int -> dests:int list ->
  Tree.t option
(** Re-run the greedy on the current (post-failure) graph, seeded with
    the surviving prefix of [prev]: every binding still connected to the
    root over up links keeps its exact parent edge (delivered subtrees
    keep their state, mirroring §3's static prefix rules staying valid),
    and peeling only attaches the receivers the failure cut off.
    Survivors that no longer feed any destination are pruned.  [None]
    when some destination is now unreachable.  Raises
    [Invalid_argument] if [prev] is not rooted at [source].  Corpus
    knob: the pinned tree-digest corpus in the tests sweeps [salt]. *)

(** {1 Membership deltas}

    The service control plane ({!Peel_ctrl.Service}) keeps one tree
    per long-lived group while subscribers join and leave.  [splice]
    extends {!repeel}'s seeded peeling to {e membership} deltas: a
    single subscriber's subtree is spliced in or out without
    re-peeling the rest of the tree, so plan latency under churn is
    O(path) instead of O(fabric).  The caller remains responsible for
    falling back to a full {!build} when the spliced tree violates the
    Theorem 2.5 cost envelope (see {!Peel_check.Check_tree}) — splice
    preserves validity, not optimality. *)

type delta = Add of int | Remove of int
    (** One membership change: a subscriber endpoint joining or
        leaving the group. *)

val splice :
  ?salt:int ->
  ?dist:int array ->
  Graph.t ->
  prev:Tree.t ->
  source:int ->
  dests:int list ->
  delta:delta ->
  Tree.t option
(** [splice g ~prev ~source ~dests ~delta] updates [prev] for one
    membership delta, where [dests] is the destination set {e after}
    the delta.  [Add d] climbs from [d] toward the source along BFS
    layers (lowest-{!build}-rank previous-layer neighbour, preferring
    nodes already in the tree, where the climb stops), binding a fresh
    single-path subtree; existing bindings are never rewired.
    [Remove d] prunes the bindings that no longer feed any remaining
    destination.  [dist] optionally reuses a cached
    [Graph.bfs_dist g source] array for the {e current} graph; without
    it, [Add d] runs a search bounded by [d].  [dests] may repeat a
    node or hold the source.

    Either way the call costs O(tree) beyond that search: the climb
    reads each climbed node's adjacency once, and the new tree comes
    from {!Tree.derive} over [prev]'s columns and the climbed bindings.
    On serve-churn's shape (a 13-member group on a 4×8 leaf-spine, a
    21-edge tree, cached [dist]) a leave or rejoin of one member costs
    1.0–1.5 µs and ~160 minor words, most of them the new tree's
    columns, against 3.7–6.6 µs and ~1,030 words when the tree was
    rebuilt through {!Tree.of_parents} (adjacent runs on a 2-core
    x86-64 host; the [layer_peel_splice_ls4x8_12_dests_x100] micro
    row).

    Returns [None] when an added member is unreachable, or when the
    climb finds no previous-layer candidate with an up reverse link at
    some hop (possible when a caller-supplied [dist] is stale or links
    went down since the BFS) — callers fall back to a full peel.
    Raises
    [Invalid_argument] if [prev] is not rooted at [source], or if
    [delta] disagrees with [dests] ([Add d] without [d] in [dests], or
    [Remove d] with [d] still present). *)

val farthest_layer : Graph.t -> source:int -> dests:int list -> int option
(** F = the largest hop distance from the source to any destination
    ([None] if unreachable) — the quantity bounding the approximation
    factor.  Runs the kernel's bounded search only. *)
