(** Exact minimum Steiner tree via the Dreyfus–Wagner dynamic program.

    Exponential in the number of terminals (3^q subsets), so it is only
    usable for small groups — which is exactly its role here: a ground
    truth against which the layer-peeling greedy's approximation quality
    is measured (paper §2.3 / the "within 1.4% of the Steiner optimum"
    claim).  Unit link costs; only up links are considered. *)

open Peel_topology

val steiner_cost : Graph.t -> terminals:int list -> int option
(** Minimum number of links connecting all terminals; [None] if they
    are not mutually reachable. Raises [Invalid_argument] if more than
    [max_terminals] distinct terminals are given. Terminal lists of
    size 0 or 1 cost 0. *)

val oracle : Graph.t -> source:int -> dests:int list -> int option
(** Exact-comparison oracle for the topology zoo (E21): the minimum
    Steiner cost over [source :: dests], preceded by an exactness-
    preserving reduction.  A terminal with exactly one live neighbor is
    pendant — every spanning tree must use that edge — so it is
    replaced by its neighbor at +1 cost, and coincident replacements
    merge.  Since endpoints hang off a single ToR, a q-host group on r
    racks reduces to about r+1 switch terminals before the 3^q dynamic
    program runs, stretching the oracle well past [max_terminals]
    hosts.  [None] when a terminal is isolated, the terminals are not
    mutually reachable, or the reduced instance still exceeds
    [max_terminals] — callers skip the ratio measurement rather than
    approximate it. *)
