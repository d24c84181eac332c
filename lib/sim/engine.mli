(** Discrete-event simulation engine.

    A time-ordered queue of thunks.  Events run in time order, and
    events scheduled for the same instant run in scheduling order,
    which — together with the deterministic PRNG — makes every
    simulation bit-reproducible.  [run ~until] honours the same order:
    it stops before the first event, in that order, later than
    [until].

    The queue is {!Peel_util.Pairing_heap}, holding slot ids into a
    table of thunks; its (priority, insertion order) pop order is
    exactly the contract above.  An event scheduled at {!now} — a
    zero-delay successor — takes the heap's FIFO lane in O(1) instead
    of sifting; the lane is internal to the heap and changes no
    event's place in the order. *)

type t
(** One event loop: a clock and a time-ordered queue of thunks. *)

val create : ?trace:Trace.t -> unit -> t
(** With a [trace] (default {!Trace.null}), the engine maintains the
    trace's [engine_events] count and [engine_max_pending] queue-depth
    high-water mark; an [Off] trace costs nothing. *)

val now : t -> float
(** Current simulation time in seconds; 0.0 before the first event. *)

val schedule : t -> float -> (unit -> unit) -> unit
(** [schedule t at f] runs [f] at absolute time [at].  Raises
    [Invalid_argument] when [at] lies in the past or is NaN. *)

val schedule_in : t -> float -> (unit -> unit) -> unit
(** Relative variant: [schedule_in t dt f = schedule t (now t +. dt) f]. *)

val run : ?until:float -> t -> unit
(** Drain the event queue (or stop once the next event would exceed
    [until]; remaining events stay queued).  The bench's engine-walker
    row runs bounded windows of a queue that never drains. *)

val pending : t -> int
(** Events still queued (only non-zero after a bounded [run ~until]).
    Test oracle: the bounded-run tests check what stays queued. *)

val events_processed : t -> int
(** Total events executed so far, across all [run] calls. *)
