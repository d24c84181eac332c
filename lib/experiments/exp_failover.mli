(** E16 (extension) — mid-run link failure and controller re-peeling.

    A single broadcast is interrupted by a scheduled failure of a
    random slice of the fabric links (the same seeded draw for every
    combination) at a configurable fraction of the scheme's clean CCT;
    the controller notices after a detection delay, re-peels on the
    surviving fabric after a reaction delay, and the run completes via
    the new tree plus NACK repairs.  Sweeps failure time x reaction
    delay for PEEL against the ring and binary-tree baselines and
    reports CCT degradation (failed / clean). *)

val rows_json : Common.mode -> Peel_util.Json.t
(** The same rows as a [peel-bench/1] "failover_degradation" array. *)

val run : Common.mode -> unit
