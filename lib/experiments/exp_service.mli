(** E20 (ext): the open-loop multicast-as-a-service control plane —
    {!Peel_ctrl.Service} consuming a two-tenant Poisson event stream,
    swept over per-switch TCAM capacity and admission policy
    (evict vs. deny).  The counter rows are deterministic for the
    fixed seed and guarded in BENCH.json; the wall-clock SLO rows
    (plan-latency percentiles, sustained events/sec) are reported but
    unguarded. *)

val rows_json : Common.mode -> Peel_util.Json.t
val slo_json : Common.mode -> Peel_util.Json.t
val run : Common.mode -> unit
