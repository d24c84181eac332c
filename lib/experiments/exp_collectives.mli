(** E11 (extension) — PEEL inside larger collectives.

    The paper's take-away is multicast as "a first-class primitive";
    this experiment measures what that buys the collectives training
    actually runs: allgather, reduce, and allreduce, comparing
    ring-based algorithms against PEEL-based compositions across
    message sizes on a one-GPU-per-server fabric (every hop on the
    fabric). *)

val run : Common.mode -> unit
