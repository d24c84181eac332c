(** E19: scale sweep on the conservative sharded engine.

    Extends the fig6 story past the paper's 1024-GPU fat-tree: CCT of
    the static schemes on k=16/32 (Quick) and k=64 (Full) fat-trees,
    executed on {!Peel_collective.Par} with window audits on.  Each row
    also reports the run's {e window parallelism} — total events over
    the barrier-window critical path — a deterministic, machine-
    independent ceiling on the wall-clock speedup the sharded engine
    can reach on that workload.

    The CCT/parallelism rows are bit-deterministic (the sharded engine
    is jobs-invariant) and guarded by [bench guard]; the measured
    jobs=1 vs jobs=4 wall-clock section is machine-dependent and
    recorded unguarded. *)

val rows_json : Common.mode -> Peel_util.Json.t
(** The deterministic sweep rows (the BENCH.json ["scale"] section). *)

val speedup_json : Common.mode -> Peel_util.Json.t
(** Measured wall-clock at jobs=1 vs jobs=4 on the largest fabric of
    the mode (the BENCH.json ["scale_speedup"] section, not guarded).
    ["speedup"] is [null] on a host with fewer than 4 cores, where the
    ratio would measure barrier overhead rather than a speedup. *)

val run : Common.mode -> unit
(** Print the sweep table and the measured-speedup note. *)
