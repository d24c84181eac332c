(** Static checks over PEEL send plans ({!Peel.Plan}) and static rule
    tables ({!Peel_prefix.Rules}).

    Plan codes:
    - [PLAN001] an endpoint is delivered by more than one packet
    - [PLAN002] a destination is covered by no packet
    - [PLAN003] a packet delivers to an endpoint outside the group
    - [PLAN004] a packet's recorded racks/waste/endpoints disagree with
      what its prefixes actually cover ([Cover.expand] minus targets)
    - [PLAN005] two packets cover the same (pod, ToR id) — prefix
      covers are not disjoint
    - [PLAN006] [header_bytes] disagrees with {!Peel.Plan.header_bytes_for}
    - [PLAN007] header exceeds the paper's < 8 B budget
    - [PLAN008] a packet prefix lies outside the fabric's identifier
      space (no static rule can match it)
    - [PLAN009] the emulated data plane ({!Peel.Dataplane}) does not
      reach exactly the racks the plan claims

    Rule-table codes:
    - [RULE001] more rules than the [k - 1] static budget per
      aggregation switch
    - [RULE002] a rule's port set disagrees with its prefix block
    - [RULE003] the table was built for a different identifier-space
      width than the fabric's *)

open Peel_topology

val check : Fabric.t -> Peel.Plan.t -> Diagnostic.t list

val check_rules : Fabric.t -> Peel_prefix.Rules.table -> Diagnostic.t list
