(** E3 — Figure 4: Orca's SDN flow-setup delay inflates collective
    completion time.

    A 1024-GPU 8-ary fat-tree runs 64-GPU Broadcasts of 2-512 MB under
    Orca, with the controller's N(10 ms, 5 ms) flow-setup delay either
    modelled or zeroed.  The paper's claim: the p99 CCT of a 32 MB
    Broadcast rises ~8x with controller overhead. *)

val run : Common.mode -> unit
