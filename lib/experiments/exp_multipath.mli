(** E12 (extension) — the §2.3 open question: multicast vs multipath.

    A single Steiner tree funnels a collective onto one set of links; a
    load balancer wants bytes striped across many.  This ablation
    measures (a) striping chunks over N edge-diverse layer-peeling
    trees, and (b) the NCCL double binary tree, against single-tree
    PEEL and the unicast baselines under load — plus the effect of the
    chunk count the paper fixes at 8. *)

val run : Common.mode -> unit
