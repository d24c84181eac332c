(** E21 (extension) — the topology zoo under generalized layer-peeling.

    Sweeps {!Peel_topology.Zoo}'s four generators (plus a symmetric
    fat-tree control) across failure rate and group size, measuring the
    general peel's approximation ratio against the exact-Steiner oracle
    ({!Peel_steiner.Exact.oracle}); counts the per-switch port-set
    rules a salted tree family needs where no pod/ToR prefix structure
    exists; and rides per-epoch link-set swaps ({!Zoo.Reconfig}) on the
    expander classes through the E16 failover machinery, reporting CCT
    degradation and controller re-peels.

    Every section is seeded and deterministic; the Quick-mode record is
    the guarded ["zoo"] section of BENCH.json. *)

val rows_json : Common.mode -> Peel_util.Json.t
(** All three sections as one object — the BENCH.json ["zoo"] record. *)

val run : Common.mode -> unit
