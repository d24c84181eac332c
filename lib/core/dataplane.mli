(** Switch data-plane emulation: runs a {!Plan} through the actual
    static rule tables, byte-for-byte the way hardware would.

    The sender wire-encodes each packet's [<prefix, len>] tuples
    ({!Peel_prefix.Header}); the core tier decodes the pod field and
    replicates to the matching pod block using its pre-installed rules;
    each pod's aggregation tier decodes the ToR field and replicates to
    the matching rack block.  [verify] cross-checks that this pipeline
    reaches *exactly* the racks the plan says it reaches — the
    end-to-end consistency between the control plane (cover-set
    computation) and the data plane (k-1 static TCAM rules). *)

open Peel_topology

type delivery = {
  packet_index : int;
  pods_reached : int list;
  tors_reached : int list;  (** ToR node ids, ascending *)
}

val deliver : Fabric.t -> Plan.t -> delivery list
(** Execute every packet of the plan through encode -> decode -> rule
    lookup -> replication.  Raises [Invalid_argument] on a malformed
    plan (prefix outside the fabric's id space). *)

val verify : Fabric.t -> Plan.t -> (unit, string) result
(** [Ok ()] iff for every packet the data plane reaches exactly
    [packet.tors] (members plus over-covered racks), and collectively
    every destination's rack is reached. *)

val over_covered : Fabric.t -> Plan.t -> int list
(** ToR node ids the static pipeline reaches that house no plan
    destination (ascending, deduped) — the wasted replication a
    budgeted cover trades for fewer rules.  Computed purely from
    {!deliver} output, so it can be differenced against the control
    plane's {!Peel_prefix.Cover} over-cover set.
    Test oracle: the service tests difference the control plane's
    over-cover set against it. *)

(** {1 Refined stage (§3.3 stage two)}

    Once the controller's per-group installs land, replication no
    longer goes through the static prefix tables: each core switch
    holds one exact entry for the group listing its egress pods, and
    each reached pod's aggregation tier holds the group's member rack
    ports.  No decode, no power-of-two rounding — and so no
    over-cover. *)

type group_entry = {
  entry_group : int;
  core_ports : int list;              (** pods replicated to, ascending *)
  agg_ports : (int * int list) list;  (** pod -> member ToR indices *)
}

val exact_entry : Fabric.t -> group:int -> members:int list -> group_entry
(** The exact entry set for a group: one core rule fanning out to the
    pods with members, one agg rule per such pod listing exactly the
    member racks.  Raises [Invalid_argument] on an empty group. *)

val deliver_exact : Fabric.t -> group_entry -> int list
(** Replay the entry through the switches: ToR node ids reached
    (ascending).  Raises [Invalid_argument] if the entry names a pod or
    port outside the fabric. *)

val verify_exact : Fabric.t -> group_entry -> members:int list -> (unit, string) result
(** [Ok ()] iff the refined pipeline reaches {e exactly} the member
    racks — the CTRL001 contract. *)
