(** E18: the fleet-level rule compiler — concurrent multicast groups
    sustained per TCAM entry budget, per-group exact installs vs.
    compiled tables (dedup) vs. compiled tables with cross-group
    aggregation, on one seeded arrival sequence.

    Pure control-plane accounting (no simulation), so the rows are
    bit-deterministic and guarded in BENCH.json's "compile" section. *)

val rows_json : Common.mode -> Peel_util.Json.t
val run : Common.mode -> unit
