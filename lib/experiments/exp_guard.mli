(** E8 — the sender-side guard timer (paper §4, congestion control).

    Multicast turns one ECN mark into a CNP per receiver; reacting to
    every CNP collapses the sender's rate.  The paper replaces the
    receiver-side limiter with a 50 us sender-side guard timer and
    reports a 12x lower p99 CCT for a 64-GPU Broadcast of 32 MB. *)

val run : Common.mode -> unit
