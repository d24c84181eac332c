(** The modeled PEEL controller (§3.3): groups register on arrival,
    and after an RPC round plus serial per-entry install time their
    exact per-group rules land at the refined tree's switches.  Until
    then — and again after an eviction — the group rides the static
    prefix rules.

    Timing model: a group admitted at [at] with [n] entries becomes
    [Refined] at [at + rpc + n * per_rule], as a discrete engine
    event.  TCAM space is claimed only when the installs land;
    victims displaced by the claim revert to [Static] everywhere
    (partial entry sets cannot replicate exactly) and an [Evict]
    trace event is emitted per victim.

    With [capacity <= 0] there is no TCAM at all: every group stays
    [Static] forever — the knob that turns PEEL-refined back into
    PEEL-static. *)

open Peel_sim

(** Which rules a group's chunks currently ride: the pre-installed
    static prefixes, or its exact per-group entries. *)
type stage = Static | Refined

val stage_to_string : stage -> string
(** ["static"] / ["refined"], as printed in tables and traces. *)

type config = {
  rpc : float;       (** controller-to-switch RPC round, seconds *)
  per_rule : float;  (** serial install time per TCAM entry, seconds *)
  capacity : int;    (** per-switch entry budget; [<= 0] disables refinement *)
  policy : Tcam.policy;
  budget : int option;
      (** static-stage ToR-prefix budget handed to {!Peel.Plan.build};
          [None] = exact covers (no over-cover to refine away) *)
}

val default_config : config
(** 2 ms RPC, 20 us/rule, 1024 entries, LRU, budget 1 (one prefix per
    pod-signature group — the maximal over-cover PEEL's refinement
    targets). *)

type t
(** The controller's mutable state: group registry, pending installs
    and the optional TCAM. *)

val create : ?trace:Trace.t -> config -> t
(** Raises [Invalid_argument] on negative or non-finite latencies, or
    on a [budget] of [Some b] with [b < 1]. *)

val config : t -> config
(** The configuration the controller was created with. *)

val tcam : t -> Tcam.t option
(** The live TCAM model ([None] when [capacity <= 0]). *)

val budget : t -> int option
(** The static-stage prefix budget from the config. *)

val install_latency : t -> nrules:int -> float
(** [rpc + nrules * per_rule]. *)

val admit : t -> Engine.t -> gid:int -> at:float -> switches:(int * int) list -> cost:int -> unit
(** Register a group arriving at [at]; [switches] lists the refined
    tree's [(switch, egress ports)] entries and [cost] its link count
    (stamped on the [Refine] trace event).  Schedules the install
    completion; with no entries to install ([switches = []]) or no
    TCAM the group stays [Static].  Raises [Invalid_argument] on a
    duplicate id. *)

val stage : t -> gid:int -> stage
(** The group's current stage ([Static] if unknown) — launchers read
    this at each chunk release to pick the stage's tree. *)

val touch : t -> now:float -> gid:int -> bytes:float -> unit
(** Account a refined-stage chunk against the group's entries (feeds
    LRU recency / byte weights); no-op unless [Refined]. *)

val release : t -> gid:int -> unit
(** Group departure: free its entries everywhere and stop any pending
    install from landing.  Voluntary, so no [Evict] event. *)

val installs : t -> int
(** Total TCAM entries ever installed. *)

val evictions : t -> int
(** Groups forced back to [Static] by TCAM pressure (departures are
    not counted). *)
