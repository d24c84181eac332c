(** Per-link FIFO transmission state.

    Every directed link is a FIFO server: a chunk reserved at time [t]
    starts transmitting at [max t free], occupies the link for
    [bytes / bandwidth] seconds, and the difference between the two is
    the queueing delay — the congestion signal ECN-style marking keys
    off.  Queues are unbounded (PFC-style lossless fabric: backpressure
    shows up as delay, never as loss). *)

open Peel_topology

type t
(** Mutable per-link state for one run: free times, busy-seconds
    accounting, up/down flags and failure epochs. *)

type reservation = {
  start : float;       (** when the first byte leaves *)
  finish : float;      (** when the last byte leaves (add propagation
                           latency for arrival at the far end) *)
  queue_delay : float; (** start - requested time *)
}

val create : ?trace:Trace.t -> Graph.t -> t
(** With a [trace] (default {!Trace.null}), every reservation emits a
    [Reserve] event carrying its queueing delay and the backlog it
    found; an [Off] trace adds one branch to the hot path. *)

val trace : t -> Trace.t
(** The trace this link state reports into ({!Trace.null} if none). *)

val up : t -> link:int -> bool
(** Whether the directed link is currently up ([Graph.link_up]). *)

val epoch : t -> link:int -> int
(** Failure epoch of a directed link: incremented every time the link
    goes down.  A chunk that reserved at epoch [e] and arrives when the
    epoch differs was in flight across a failure and is lost. *)

val set_link_up : t -> now:float -> duplex:int -> up:bool -> bool
(** Apply a fault-schedule transition to both directions of the duplex
    pair containing [duplex]: flips the graph's link state, bumps both
    epochs on a down transition, and emits a [Link_fail]/[Link_recover]
    trace event stamped [now].  Returns [false] (and does nothing) when
    the pair is already in the requested state. *)

val reserve : t -> link:int -> now:float -> bytes:float -> reservation
(** Raises [Invalid_argument] if the link is down or [bytes] is not
    positive (NaN included). *)

val arrival : t -> link:int -> reservation -> float
(** [finish + propagation latency] — when the chunk is fully received
    by the next hop. *)

val backlog : t -> link:int -> now:float -> float
(** Seconds of queued transmission ahead of a reservation made now. *)

val busy_seconds : t -> link:int -> float
(** Cumulative transmission time, for utilization accounting. *)

val utilization : t -> link:int -> horizon:float -> float
(** [busy_seconds / horizon].  Raises [Invalid_argument] unless
    [horizon > 0] (NaN is rejected). *)

val reset : t -> unit
(** Clear all free times, busy accounting and failure state for a
    fresh run on the same graph. *)
