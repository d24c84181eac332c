(** Optimal multicast tree in a failure-free (symmetric) Clos.

    Implements Lemma 2.1 of the paper: in a symmetric fabric the core
    tier collapses into a logical super-node, so the minimum-cost
    multicast tree is the unique layered tree through one (arbitrary)
    spine/core, built in [O(|D|)] time.  For a fat-tree the analogous
    construction routes through one aggregation switch per involved pod
    and a single core switch; edges are only added for tiers the
    destination set actually needs (same-ToR, same-pod and cross-pod
    destinations each stop at the lowest sufficient tier).

    Endpoints may be GPUs or hosts; either way each endpoint hangs
    directly off its ToR (GPUs through their dedicated NIC), which is
    where in-network multicast replicates the last copy.

    Both functions enumerate the same parent bindings once, over one
    sorted int column of (ToR, endpoint) keys, and look up each
    binding's link in the smaller of its two endpoints' adjacencies.  A
    call costs O(|D| log |D|) plus one adjacency scan per binding; it
    never touches the rest of the fabric. *)

open Peel_topology

val build : Fabric.t -> source:int -> dests:int list -> Tree.t
(** Each binding uses the lowest-id parent->child link that is up.
    Raises [Invalid_argument] if a required link is down (the fabric is
    not symmetric), if [source]/[dests] are not endpoints, or on a zoo
    fabric when the group spans more than one rack.  The source is
    removed from [dests] if present. *)

val cost_lower_bound : Fabric.t -> source:int -> dests:int list -> int
(** The bandwidth-optimal link count for the group on the failure-free
    fabric: the cost of the tree [build] returns when no link is down.
    Each binding is checked against a link of the fabric whether that
    link is up or down, so failed links neither change the count nor
    raise, and no link state is read or written.  Raises
    [Invalid_argument] where [build] would for any reason but a down
    link.  Exposed separately so the Theorem 2.5 check and benchmarks
    get the optimum without materializing the tree. *)
