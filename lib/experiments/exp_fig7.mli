(** E6 — Figure 7: robustness to failures in an asymmetric leaf-spine.

    16 spines x 48 leaves, 2 servers/leaf, 8 GPUs/server; Poisson
    streams of 64-GPU Broadcasts of 8 MB run while 1-10% of spine-leaf
    links are failed uniformly at random (fresh draw per stream), so
    lost capacity surfaces as queueing.

    The paper's claims: PEEL's greedy trees stay fastest across the
    whole failure range; at 10% failures PEEL's p99 is ~3x lower than
    Ring and ~30x lower than Tree. *)

val run : Common.mode -> unit
