(** E5 — Figure 6: mean and p99 CCT versus Broadcast scale (32-1024
    GPUs) at a fixed 64 MB message size.

    The paper's claims: PEEL surpasses Ring, Tree and Orca across the
    whole range while staying closest to optimal; at 256 GPUs PEEL's
    mean CCT is ~5x lower than Ring, ~13x lower than Tree, ~2.5x lower
    than Orca. *)

val run : Common.mode -> unit
