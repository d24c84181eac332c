(** E17: the two-stage refinement control plane (§3.3) under group
    churn — over-cover bytes and CCT vs. controller install latency
    and per-switch TCAM budget, PEEL-static vs. PEEL-refined vs.
    per-group IPMC on one seeded group schedule. *)

val rows_json : Common.mode -> Peel_util.Json.t
val run : Common.mode -> unit
