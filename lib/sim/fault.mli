(** Deterministic, seeded schedules of mid-run link failures.

    The paper's asymmetric-Clos story (§2.2–2.5) is about fabrics that
    are *already* broken when a tree is built; this module supplies the
    dynamic half: a validated list of [(time, duplex link id)]
    fail/recover events that {!install} applies to the live graph while
    a collective is in flight.  Each applied transition flips both
    directions of the duplex pair ({!Link_state.set_link_up}), bumps
    the failure epoch so in-flight chunks on the pair are dropped by
    {!Transfer}, and emits a [Link_fail]/[Link_recover] trace event —
    so a traced run carries the full fault history and
    {!Peel_check.Check_sim.check_trace} can verify that nothing was
    ever reserved on a down link (SIM007).

    Schedules are plain data built from explicit event lists (or the
    {!schedule_of_failures} convenience), so the same schedule replays
    bit-identically: same seed + same schedule => same trace. *)

(** What happens to the duplex pair at the event's instant. *)
type action = Fail | Recover

type event = {
  at : float;      (** absolute simulation time, seconds *)
  duplex : int;    (** either direction's id; the whole pair flips *)
  action : action;
}

type t
(** A validated schedule: events sorted by time (stable for ties). *)

val of_list : event list -> t
(** Sorts (stably) by [at].  Raises [Invalid_argument] if any event has
    a negative or non-finite time or a negative link id. *)

val events : t -> event list
(** The schedule's events in application order.
    Test oracle: the schedule tests read the validated order back. *)

val is_empty : t -> bool
(** [true] iff the schedule carries no events.
    Test oracle: the schedule tests check an empty schedule with it.
    *)

val schedule_of_failures :
  at:float -> ?recover_at:float -> int list -> t
(** Fail every listed duplex id at [at]; with [recover_at] (which must
    be later), bring them all back up then.  The usual recipe: draw ids
    with {!Peel_topology.Fabric.fail_random}, recover them with
    {!Peel_topology.Fabric.recover_link}, then hand the ids here so the
    failure happens mid-run instead of up front. *)

val install :
  Engine.t -> Link_state.t -> t -> ?on_event:(event -> unit) -> unit -> unit
(** Schedule every event on the engine.  Install {e before} launching
    collectives: the engine breaks same-time ties FIFO, so an installed
    fault at time [T] is applied before any transfer work scheduled for
    [T] later in the run — trace order then guarantees no reservation
    precedes the [Link_fail] it races with.  [on_event] fires after a
    transition is applied (and is skipped for no-op events, e.g.
    failing an already-down pair) — the hook controllers use to start
    their detection clock. *)
