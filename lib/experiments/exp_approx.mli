(** E9 — approximation quality of the layer-peeling greedy (§2.3) and
    aggregate bandwidth versus unicast rings (§1).

    Two parts:
    - tree cost: on small asymmetric leaf-spines, compare the greedy
      tree's link count with the exact (Dreyfus-Wagner) Steiner
      optimum across random failure draws;
    - aggregate bytes: on the evaluation fat-tree, compare a 512-GPU
      Broadcast's total fabric-link traversals under PEEL versus a
      unicast ring (paper: PEEL uses ~23% less aggregate bandwidth). *)

type bandwidth = {
  ring_traversals : int;
  peel_traversals : int;
  savings_pct : float;
}

val compute_bandwidth : unit -> bandwidth
(** Unit-tested: no caller outside its own tests. *)

val run : Common.mode -> unit
