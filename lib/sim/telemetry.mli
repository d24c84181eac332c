(** Link-level telemetry over a finished (or running) simulation.

    A deployable multicast service needs path observability (paper §1
    footnote; §3.4).  The simulator already accounts per-link busy
    time; this module turns it into the reports an operator would pull:
    hottest links, mean utilization per fabric tier — which is how the
    funnel-versus-fan-out asymmetry of multicast shows up — and, when
    the run carried a [Full] {!Trace}, per-link congestion detail
    (reservation counts, bytes, ECN marks, worst-case backlog, mean
    queueing delay). *)

open Peel_topology

type link_report = {
  link : int;
  src : int;
  dst : int;
  tier : string;        (** e.g. "host->tor", "agg->core" *)
  utilization : float;  (** busy seconds / horizon *)
  reservations : int;   (** chunks that crossed the link (0 without a
                            [Full] trace; subject to its sampling) *)
  bytes : float;        (** traced bytes across the link *)
  ecn_marks : int;      (** chunks marked on this link *)
  max_backlog : float;  (** worst queue depth found, in seconds *)
  mean_queue_delay : float;  (** mean queueing delay of traced chunks *)
}

type t
(** A frozen set of per-link reports over one observation horizon. *)

val snapshot : Graph.t -> Link_state.t -> horizon:float -> t
(** [horizon] is the observation window (typically the simulation
    makespan). Raises [Invalid_argument] if non-positive.  The
    trace-derived fields come from the link state's attached trace
    ({!Link_state.trace}) and are zero when tracing was off or below
    [Full]. *)

val of_busy : Graph.t -> busy:float array -> horizon:float -> t
(** Build telemetry from a per-link busy-seconds array — how the
    sharded engine ({!Peel_sim.Shard}) reports, since it accounts busy
    time directly instead of through {!Link_state}.  Trace-derived
    fields (reservations, bytes, ECN, backlog) are zero.  Raises
    [Invalid_argument] on a non-positive [horizon] or a length
    mismatch against [Graph.num_links]. *)

val reports : t -> link_report array
(** One report per directed link, indexed by link id. *)

val hottest : t -> n:int -> link_report list
(** The [n] most utilized links, descending. *)

val tier_utilization : t -> (string * float) list
(** Mean utilization per (src kind -> dst kind) tier, descending;
    tiers with zero traffic are included at 0. *)

val max_utilization : t -> float
(** The single highest per-link utilization (0 on an empty fabric);
    values above 1 mean a link stayed busy past the horizon — an
    invariant violation {!Peel_check.Check_sim.check_outcome} flags. *)

val to_json : t -> Peel_util.Json.t
(** All link reports as a JSON array (the ["links"] section of the
    [peel_cli trace] export). *)
