(** E22 (ext): the million-group service fast path —
    {!Peel_ctrl.Service} (slot-table group store, one TCAM table,
    a (source, member-set) peel memo and a destination-rack plan memo)
    driven past 10^6 concurrent groups by two long-hold Poisson
    tenants, and raced against the reference implementation
    ({!Peel_ctrl.Service_ref}) on the byte-identical event stream.

    The counter rows — including the cached and cache-off replay
    fingerprints — are deterministic for the fixed seed and
    guarded in BENCH.json; the wall-clock rows (events/sec for both
    implementations, speedup, live heap) are reported but unguarded.
    The reference runs only for the SLO rows, never under the bench
    guard. *)

val seed : int
val fabric : unit -> Peel_topology.Fabric.t

val tenants : unit -> Peel_workload.Stream.tenant list
(** The E22 stream: its seed, fabric and long-hold tenant mix. *)

val rows_json : Common.mode -> Peel_util.Json.t
val slo_json : Common.mode -> Peel_util.Json.t
val run : Common.mode -> unit
