(** Discrete-event simulation engine.

    A time-ordered queue of thunks.  Events scheduled for the same
    instant run in scheduling order (the queue breaks ties FIFO), which
    — together with the deterministic PRNG — makes every simulation
    bit-reproducible.

    The queue is the flat binary heap {!Peel_util.Pairing_heap}: its
    ties break by insertion order, which is exactly the FIFO contract
    above. *)

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
    [Invalid_argument] when [at] lies in the past. *)

val schedule_in : t -> float -> (unit -> unit) -> unit
(** Relative variant: [schedule_in t dt f = schedule t (now t +. dt) f]. *)

val run : ?until:float -> t -> unit
(** Drain the event queue (or stop once the next event would exceed
    [until]; remaining events stay queued). *)

val pending : t -> int
(** Events still queued (only non-zero after a bounded [run ~until]). *)

val events_processed : t -> int
(** Total events executed so far, across all [run] calls. *)
