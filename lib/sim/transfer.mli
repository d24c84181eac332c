(** Chunk transfer primitives: store-and-forward unicast along a path,
    replication down a multicast tree, and a walk over a precomputed
    forwarding DAG ({!Soa.dag}).

    All three share one per-hop step.  It reserves each link {e at the
    moment the chunk is ready to cross it} (event time), so concurrent
    collectives interleave in true FIFO order on shared links.  A random
    loss is repaired on the hop where it happened, and a link that is
    down, or fails under the chunk, loses it there.  What happens next
    is the route shape's business: see each primitive.

    When the link state carries a {!Trace}, every primitive emits [Drop]
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

val loss_model : seed:int -> prob:float -> ?rto:float -> unit -> loss
(** Default [rto] is 100 us.  Raises [Invalid_argument] unless
    [0 <= prob < 1] and [rto > 0]; NaN fails both. *)

val unicast :
  Engine.t ->
  Link_state.t ->
  links:int list ->
  bytes:float ->
  start:float ->
  ?loss:loss ->
  ?on_lost:(time:float -> unit) ->
  on_delivered:(float -> unit) ->
  unit ->
  unit
(** Send one chunk along consecutive links; [on_delivered] fires with
    the arrival time at the final node.  An empty path delivers at
    [start].  With [loss], a dropped hop is retransmitted by that hop's
    sender after [rto] (per-hop selective repeat, as RDMA QPs do).

    A hop whose link is down — or whose link fails while the chunk is
    in flight ({!Link_state.epoch} changed between reservation and
    arrival) — loses the chunk: a [Drop] is traced and [on_lost] fires
    (once), handing recovery to the caller.  Without [on_lost] the hop
    stalls and retries every RTO until the pair recovers — so a path
    crossing a permanently dead link never delivers; callers injecting
    faults should pass [on_lost] and reroute. *)

val multicast :
  Engine.t ->
  Link_state.t ->
  tree:Peel_steiner.Tree.t ->
  bytes:float ->
  start:float ->
  ?loss:loss ->
  ?on_lost:(node:int -> time:float -> unit) ->
  on_delivered:(node:int -> time:float -> unit) ->
  unit ->
  unit
(** Replicate one chunk from the tree root downward (store-and-forward
    at every member).  [on_delivered] fires for every non-root member;
    callers filter for actual destinations.

    With [loss], a dropped tree edge is repaired hop-locally just like
    unicast: the edge's sender resends after [rto] and the repair is
    counted in [loss.retransmissions] — a lossy hop delays only its own
    subtree.

    A *failed* link (down at send time, or failing mid-flight per
    {!Link_state.epoch}) cannot be repaired locally: the chunk is lost
    and [on_lost] fires for every subtree member at the drop time —
    recovery is end-to-end, the caller unicasts the chunk to the
    receivers that NACK (paper §1: RDMA selective retransmissions). *)

val dag :
  Engine.t ->
  Link_state.t ->
  Soa.dag ->
  trees:int array ->
  bytes:float ->
  start:float ->
  ?loss:loss ->
  on_reserve:(link:int -> Link_state.reservation -> unit) ->
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
    roots and, like {!multicast}, gets one release event at [start]
    that sends them.  The event structure therefore matches {!unicast}
    and {!multicast} exactly, tie order included.

    With [loss], a dropped hop is resent by its sender after [rto].  A
    link that is down at reservation, or fails under the chunk, traces
    a [Drop] and that edge is retried after the RTO ([rto] of [loss],
    else 100 us) until the pair recovers — the routes never change. *)
