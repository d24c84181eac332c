(** E13 (extension) — loss recovery (the reliability engineering the
    paper defers to future work but inherits from RDMA).

    Sweeps per-link chunk-loss rates and measures CCT inflation and the
    repair traffic for PEEL (end-to-end source retransmissions to the
    orphaned receivers) versus Ring (per-hop selective repeat). *)

val run : Common.mode -> unit
