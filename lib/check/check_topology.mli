(** Topology-zoo invariant checking (TOPO00x).

    The zoo generators ({!Peel_topology.Zoo}) emit fabrics with no
    symmetric-Clos structure to lean on, so their correctness story is
    different: the layering annotation must be well formed, the
    class-specific degree/size invariants must hold, general-peel trees
    must descend monotonically through the BFS layers, and the greedy's
    cost must sit between the exact Steiner optimum and the
    Theorem 2.5 envelope measured {e against that optimum} rather than
    against the closed-form Clos bound.

    Codes: TOPO001 layering malformed, TOPO002 class invariant broken,
    TOPO003 tree edge climbs the layering, TOPO004 measured
    approximation ratio out of bounds. *)

open Peel_topology

val check_ratio :
  cost:int -> opt:int -> far:int -> ndests:int -> Diagnostic.t list
(** TOPO004 — [cost] is the greedy tree's link count, [opt] the exact
    oracle's ({!Peel_steiner.Exact.oracle}), [far] the farthest layer
    F. Errors when [cost < opt] (the "exact" oracle was beaten, so it
    is not exact) or [cost > min(F, ndests) * max 1 opt] (Theorem 2.5
    measured against the true optimum).
    Unit-tested: no caller outside its own tests. *)

val check_scenario : Zoo.t -> source:int -> dests:int list -> Diagnostic.t list
(** The full zoo battery for one scenario: layering + invariants, then
    — when the group is reachable — the general-peel tree checks and,
    when the oracle can afford the instance, the measured-ratio bound.
    Runs automatically inside {!Peel_check.check_scenario} whenever the
    fabric is a zoo fabric. *)

val corrupt :
  [< `Topo001 | `Topo002 | `Topo003 | `Topo004 ] ->
  Zoo.t ->
  Zoo.t * (source:int -> dests:int list -> Diagnostic.t list)
(** [corrupt code z] seeds the malformation the TOPO code [code] exists
    to catch, for the CLI's [--corrupt] hook (and so the [@zoo-smoke]
    alias) and the unit tests.  It returns the zoo to build the fabric
    from and the planner findings of a group on it.

    TOPO001 and TOPO002 corrupt the fabric, and their planner findings
    are empty: TOPO001 drags [z]'s first ToR down to the endpoint layer,
    in place; TOPO002 returns a copy of [z] without its last ToR.

    TOPO003 and TOPO004 return [z] as it is and corrupt the planner's
    outputs: the general peel of the group, with one node attached
    through a link that does not descend the BFS layering, goes through
    the general-tree checks (TOPO003; raises [Failure] when no such link
    exists); or the peel's cost goes through {!check_ratio} against an
    optimum one link dearer than the greedy (TOPO004).  An unreachable
    group finds nothing. *)
