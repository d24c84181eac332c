(** Open-loop multicast-group event streams: the "multicast as a
    service" workload (Elmo's cloud framing).

    Where {!Spec.poisson_groups} draws a fixed batch of groups up
    front, this module generates an {e unbounded, time-ordered} stream
    of control-plane events — group [Create]/[Depart], single-member
    [Join]/[Leave] churn, and [Send] traffic ticks — by superposing
    per-tenant Poisson processes.  {!Peel_ctrl.Service} consumes the
    stream as its request log.

    Determinism: all randomness flows through the one caller-supplied
    {!Peel_util.Rng.t}, and draws are consumed strictly in event
    order, so a seed plus a tenant list replays the exact event
    sequence byte-for-byte (the SVC005 replay contract).  Equal-time
    timers fire in scheduling order ({!Peel_util.Pairing_heap} is FIFO
    on ties). *)

open Peel_topology

type tenant = {
  rate : float;           (** group arrivals per second (>= 0) *)
  scale : int;            (** members per new group *)
  bytes : float;          (** bytes per [Send] event *)
  hold : float;           (** mean group lifetime, seconds *)
  churn : float;          (** membership deltas per live group per second *)
  sends : float;          (** send ticks per live group per second *)
  fragmentation : float;  (** {!Spec.place} fragmentation knob *)
}

val tenant :
  ?churn:float ->
  ?sends:float ->
  ?fragmentation:float ->
  rate:float ->
  scale:int ->
  bytes:float ->
  hold:float ->
  unit ->
  tenant
(** Build a tenant descriptor ([churn], [sends], [fragmentation]
    default 0). *)

type kind =
  | Create of Spec.group
      (** a new group with its initial membership and departure time *)
  | Join of { gid : int; endpoint : int }
  | Leave of { gid : int; endpoint : int }  (** never the source *)
  | Send of { gid : int; bytes : float }
  | Depart of { gid : int }

type event = { ev_time : float; ev_seq : int; ev_kind : kind }
(** [ev_seq] numbers emitted events 0, 1, 2, … — the replay-stable
    total order even across equal timestamps. *)

val kind_to_string : kind -> string
(** Compact rendering, e.g. ["join[g3+17]"], for logs and digests. *)

type t
(** Mutable generator state: pending timers, live-group memberships,
    the shared RNG.  Live state is kept per issued gid, so it grows
    with gids issued, not with live groups. *)

val create : Fabric.t -> Peel_util.Rng.t -> tenants:tenant list -> unit -> t
(** Raises [Invalid_argument] if the tenant list is empty, every rate
    is zero, or any tenant parameter is out of range (scale outside
    [2, #endpoints], non-positive bytes/hold, negative rates,
    fragmentation outside [0,1]). *)

val next : t -> event
(** The next event in time order.  Churn ticks: groups at the minimum
    size (2) always join, groups spanning the whole fabric always
    leave, otherwise a fair coin picks; joins draw a uniformly random
    non-member endpoint, leaves a uniformly random non-source member.
    Raises [Invalid_argument] if the stream is exhausted (only
    possible when every tenant rate is 0 — prevented by {!create}). *)

val live_groups : t -> int list
(** Currently registered group ids, ascending — O(gids issued), since
    live state is indexed by gid; use {!live_count} when only the
    population size is needed.
    Test oracle: the stream's own live set, which the stream pins
    read. *)

val live_count : t -> int
(** Number of currently live groups — O(1), safe to poll every event
    at million-group scale.
    Test oracle: the stream's own count, which the stream pins read.
    *)

val live_members : t -> gid:int -> int list option
(** The stream's own view of a live group's membership (ascending;
    [None] after departure) — the ground truth consumers reconcile
    against in tests.
    Test oracle: the stream's ground truth for a group's members. *)
