(** The chunk walker: one chunk forwarded over a precomputed forwarding
    DAG ({!Soa.dag}).  A unicast path, a multicast tree and every
    scheme's route are all DAGs ({!Peel_collective.Par} builds them), so
    this is the only code that moves a chunk across links.

    Each hop reserves its link {e at the moment the chunk is ready to
    cross it} (event time), so concurrent collectives interleave in true
    FIFO order on shared links.  A random loss is repaired on the hop
    where it happened, and a link that is down, or fails under the
    chunk, loses it there: see {!dag}.

    When the link state carries a {!Trace}, the walker emits [Drop]
    events for lost chunks and (unattributed) [Retransmit] events for
    hop-local repairs; per-link [Reserve] events come from
    {!Link_state.reserve} itself. *)

open Peel_topology

val path_links : Graph.t -> int list -> int list
(** Map a node path to its directed link ids. Raises
    [Invalid_argument] on a broken or down path. *)

(** Per-link loss model with selective-repeat recovery (the RDMA
    machinery the paper's multicast inherits).  Each chunk crossing a
    link is dropped with probability [prob]; the drop is detected and
    repaired after [rto].  [retransmissions] counts repair sends. *)
type loss = {
  loss_rng : Peel_util.Rng.t;
  prob : float;
  rto : float;
  mutable retransmissions : int;
}

val loss_model : seed:int -> prob:float -> unit -> loss
(** A 100 us retransmission timeout.  Raises [Invalid_argument] unless
    [0 <= prob < 1]; NaN fails. *)

val dag :
  Engine.t ->
  Link_state.t ->
  Soa.dag ->
  trees:int array ->
  bytes:float ->
  start:float ->
  ?loss:loss ->
  ?on_reserve:(link:int -> Link_state.reservation -> unit) ->
  ?on_lost:(node:int -> time:float -> unit) ->
  on_delivered:(node:int -> time:float -> unit) ->
  unit ->
  unit
(** Forward one chunk over a DAG: crossing an edge reserves its link,
    and at the edge's arrival the edge's delivery (if any) is credited
    through [on_delivered], then its successors are sent, in DAG order.
    [on_reserve] sees every reservation — the attachment point for ECN
    marking.

    [trees] says how the source releases the roots.  Empty: each root
    starts a unicast chain and its first hop is scheduled at [start]
    directly.  Otherwise, multicast tree [i] owns the next [trees.(i)]
    roots and gets one release event at [start] that sends them.

    With [loss], a dropped hop is resent by its sender after [rto].  A
    link that is down at reservation, or fails under the chunk
    ({!Link_state.epoch} moved between reservation and arrival), traces
    a [Drop].  With [on_lost], the caller repairs end to end (paper §1:
    RDMA selective retransmission): [on_lost] hears of every delivery at
    or below the lost edge, in DAG order, at the drop time.  Without it,
    the edge is retried after the RTO ([rto] of [loss], else 100 us)
    until the pair recovers — so a route across a permanently dead link
    never delivers. *)
