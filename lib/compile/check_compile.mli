(** Static equivalence checker for compiled rule tables.

    Runs entirely on the compiler's output — no simulation — and pins
    each finding to a stable CMP code (DESIGN.md invariant table):

    - {b CMP001} compiled-vs-planned delivery equivalence: replaying a
      group's headers through the compiled tables must reach every rack
      the refined exact entry ({!Peel.Dataplane.deliver_exact}) reaches;
      an unaggregated compile must match the planned static data plane
      rack-for-rack.
    - {b CMP002} no shadowed or unreachable rules under longest-prefix
      -match priority order: no duplicate entries, no entry listed after
      an ancestor that would always match first, no entry no batch
      header selects, and owner records that agree with an LPM replay.
    - {b CMP003} overlap/conflict between aggregated entries: every
      entry's port set must equal its prefix block (the group-independent
      static rule, cross-checked against {!Peel_prefix.Rules.lookup}),
      and nested entries must replicate within their ancestor's ports.
    - {b CMP004} TCAM budget proof: every compiled table within the
      declared per-switch entry budget, with exact byte footprints in
      the message.
    - {b CMP005} aggregation soundness: every entry's port set is
      exactly the union of its source prefixes' blocks — merging may
      coarsen {e which} rule serves a header, never {e where} the union
      of installed rules replicates. *)

open Peel_topology

val check : Fabric.t -> Compile.t -> Peel_check.Diagnostic.t list
(** All of the above, sorted errors-first (CMP codes ascending within a
    severity). *)

val corrupt :
  [< `Cmp001 | `Cmp002 | `Cmp003 | `Cmp004 | `Cmp005 ] -> Compile.t -> Compile.t
(** [corrupt code t] seeds into [t] the table corruption the CMP code
    [code] exists to catch, for the CLI's [--corrupt] hook (and so the
    [@compile-smoke] alias) and the unit tests: CMP001 drops the last
    table's shortest-prefix entry, CMP002 appends a duplicate of the
    first table's first entry, CMP003 drops a port from that entry,
    CMP004 sets the budget one below the busiest table, and CMP005
    erases that entry's sources. *)
