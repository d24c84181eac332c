(** DCQCN-lite sender rate control with the paper's multicast guard
    timer (§4, "Congestion control").

    In DCQCN an ECN mark on a data packet makes the receiver emit a CNP
    and the sender multiplicatively cut its rate.  Under multicast a
    single marked chunk fans out into one CNP *per receiver*, so a
    64-receiver broadcast can slash the sender's rate 64 times for one
    congestion event — the paper's motivation for replacing the
    receiver-side limiter with a sender-side guard timer that honours
    at most one rate reduction per 50 µs.

    The model: multiplicative decrease on CNP (factor 1/2), linear
    recovery back to line rate (lazy, applied on every interaction),
    and a floor at 1/1000 of line rate. *)

type t
(** One sender's rate-control state. *)

val default_guard : float
(** 50e-6 seconds, the paper's value. *)

val create :
  ?guard:float option -> ?trace:Trace.t -> ?flow:int -> line_rate:float ->
  unit -> t
(** [guard = Some g] enables the sender-side guard timer with window
    [g]; [None] reacts to every CNP (classic receiver-driven DCQCN
    behaviour under multicast). Default: [Some default_guard].

    With a [trace], every {!on_cnp} emits a [Cnp] event attributed to
    [flow] (default [-1] = unattributed), followed by a [Rate_cut]
    (carrying the new rate) or — when the guard window suppresses the
    reduction — a [Guard_hold]: the per-flow rate-evolution record the
    paper's §4 guard-timer figure is drawn from.

    Raises [Invalid_argument] unless [line_rate > 0] and a [Some g]
    guard has [g > 0]; NaN fails both. *)

val rate : t -> now:float -> float
(** Current sending rate (bytes/s) after lazy recovery. *)

val on_cnp : t -> now:float -> unit
(** Congestion notification from one receiver. *)

val release_duration : t -> now:float -> bytes:float -> float
(** Time to pace out one chunk at the current rate.  Raises
    [Invalid_argument] unless [bytes > 0] (NaN is rejected). *)

val cuts : t -> int
(** Number of rate reductions actually applied (for tests/telemetry).
    Test oracle: the DCQCN tests count applied cuts with it. *)
