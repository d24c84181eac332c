(** PEEL's control plane (§3.3): multicast group churn over a shared
    fabric, a modeled controller with install latency, bounded
    per-switch TCAM state with eviction, and the two-stage
    static-to-exact handoff.

    - {!Tcam} — bounded per-switch entry tables with LRU /
      bytes-weighted eviction.
    - {!Controller} — install scheduling, stage tracking, departures.
    - {!Refine} — the stage-switching launcher and the
      static/refined/IPMC schemes.
    - {!Group_table} — the SoA store of live group state (member
      bitsets, freed slots reused most recently freed first).
    - {!Service} — the long-running open-loop multicast-as-a-service
      controller (delta re-peeling, batched sharded installs,
      admission/eviction, peel/plan memoization).
    - {!Service_ref} — the hashtable-backed reference implementation
      kept as the differential oracle for the fast path.
    - {!Check_ctrl} — the CTRL invariant lints.
    - {!Check_service} — the SVC invariant lints for service mode. *)

module Tcam = Tcam
module Controller = Controller
module Refine = Refine
module Group_table = Group_table
module Service = Service
module Service_ref = Service_ref
module Check_ctrl = Check_ctrl
module Check_service = Check_service
