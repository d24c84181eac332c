(** E15 (extension) — PEEL on a rail-optimized fabric (paper §2.1
    future work, Alibaba-HPN-style).

    GPU [r] of every server attaches to a rail-[r] ToR; the prefix
    engine addresses rail ToRs as one flat pod, so PEEL works
    unchanged.  This experiment compares schemes on rails and reports
    the static state PEEL needs there. *)

val run : Common.mode -> unit
