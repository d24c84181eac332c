(** Workload generation: Poisson collective arrivals with bin-packed
    (locality-honouring) GPU placement, per the paper's experimental
    setup (§4: "arrivals follow a Poisson process, parameterized by
    scale and message size; GPU selections honor job locality").

    Placement picks a contiguous run of endpoints aligned to server
    boundaries — the bin-packing GPU schedulers perform — with an
    optional [fragmentation] knob that relocates a fraction of the
    servers uniformly at random, for the paper's §3.4 open question. *)

open Peel_topology

type collective = {
  id : int;
  arrival : float;         (** seconds *)
  source : int;            (** a member endpoint *)
  dests : int list;        (** members except the source *)
  members : int list;      (** all group endpoints, ascending *)
  bytes : float;           (** message size *)
}

val place :
  Fabric.t ->
  Peel_util.Rng.t ->
  scale:int ->
  ?fragmentation:float ->
  unit ->
  int list
(** Pick [scale] member endpoints.  Raises [Invalid_argument] if
    [scale] exceeds the endpoint count or is < 2, or if
    [fragmentation] is outside [0, 1]. *)

val single : Fabric.t -> Peel_util.Rng.t -> scale:int -> bytes:float -> collective
(** One group {!place}d at [scale], as collective 0 arriving at time 0
    with its lowest member as source.  Its only draws are [place]'s. *)

val mean_interarrival :
  Fabric.t -> scale:int -> bytes:float -> load:float -> float
(** Interarrival time such that delivered bytes ([bytes * scale] per
    collective) average [load] of the aggregate endpoint NIC capacity.
    Test oracle: the workload tests compare drawn interarrivals
    against it. *)

val poisson_broadcasts :
  Fabric.t ->
  Peel_util.Rng.t ->
  n:int ->
  scale:int ->
  bytes:float ->
  load:float ->
  ?fragmentation:float ->
  unit ->
  collective list
(** [n] broadcasts with exponential interarrivals, fresh placement and
    a uniformly random member as source for each.  Raises
    [Invalid_argument] if [n < 1]. *)

(** {1 Group churn}

    A multicast {e group} is a collective plus a lifetime: it arrives
    (Poisson), registers with the controller, and departs after an
    exponential hold, freeing any per-group switch entries it earned.
    This is the arrival/departure process the {!Peel_ctrl} control
    plane schedules installs and evictions against. *)

type group = {
  g_id : int;
  g_arrival : float;       (** seconds *)
  g_departure : float;     (** strictly after [g_arrival] *)
  g_source : int;
  g_dests : int list;
  g_members : int list;
  g_bytes : float;
}

val poisson_groups :
  Fabric.t ->
  Peel_util.Rng.t ->
  n:int ->
  scale:int ->
  bytes:float ->
  load:float ->
  hold:float ->
  ?fragmentation:float ->
  unit ->
  group list
(** Like {!poisson_broadcasts}, plus a departure at
    [arrival + Exp(hold)] per group.  All broadcast draws are consumed
    before any hold draw, so a same-seed caller of
    {!poisson_broadcasts} sees the identical schedule (E17 and refine
    rely on it).  Raises [Invalid_argument] if [n < 1] or
    [hold <= 0]. *)

val collective_of_group : group -> collective
(** Forget the lifetime (id, arrival, members and bytes carry over). *)
