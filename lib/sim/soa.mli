(** Structure-of-arrays views for the simulator hot path.

    The record-based {!Peel_topology.Graph} API is right for planning
    code, but inside an event loop every [Graph.link] call chases a
    pointer into a boxed record.  This module flattens what the loop
    actually touches — per-link bandwidth/latency/ownership and
    per-collective forwarding DAGs — into dense int-indexed arrays, so
    the sharded engine ({!Shard}) runs record-free: an event is one
    integer key, a link is an index into parallel float arrays.

    It also defines the pod {e sharding} of a fabric: the node → shard
    map and the conservative lookahead that makes null-message-free
    windowed execution possible (events crossing a shard boundary are
    always at least [lookahead] in the future, because they must cross
    a boundary link and therefore pay its transmission + propagation
    delay). *)

open Peel_topology

(** {1 Links} *)

type links = {
  l_n : int;                (** number of directed links *)
  l_src : int array;        (** source node per directed link *)
  l_dst : int array;        (** destination node per directed link *)
  l_bw : float array;       (** bandwidth, bytes/second *)
  l_lat : float array;      (** propagation latency, seconds *)
}

val links_of_graph : Graph.t -> links
(** Flatten every directed link's static fields.  Link state (down
    links, epochs) is deliberately not captured: the sharded engine
    runs fault-free scenarios only. *)

(** {1 Sharding} *)

type sharding = {
  s_n : int;                  (** number of shards (1 = sequential) *)
  s_of_node : int array;      (** owning shard per node *)
  s_of_link : int array;      (** owning shard per directed link — the
                                  shard of the link's source node,
                                  which is the only shard that ever
                                  reserves it *)
  s_lookahead : float;        (** conservative window extension: every
                                  cross-shard event lands at least this
                                  far after the event that created it
                                  ([infinity] when [s_n = 1]) *)
}

val shard : Fabric.t -> jobs:int -> min_bytes:float -> sharding
(** Partition the fabric into [min jobs (pods fabric)] shards: a pod's
    nodes map to [pod mod shards], core switches to [core_idx mod
    shards] so the core layer spreads evenly.  [min_bytes] is the
    smallest chunk any flow will transmit; the lookahead is
    [min over boundary links of (latency + min_bytes / bandwidth)],
    scaled by [1 - 1e-6] so float rounding in the per-hop arithmetic
    can never push a cross-shard arrival below the window bound.  At
    one shard every node and link maps to shard 0 and the lookahead is
    [infinity], with no pass over the fabric.
    Raises [Invalid_argument] if [jobs < 1] or [min_bytes] is not
    [> 0] (NaN included). *)

(** {1 Flows}

    A flow is one collective flattened to a forwarding DAG whose edges
    are directed link traversals: executing an edge reserves its link
    and schedules the edge's successors at the arrival time.  Both
    engines run the same DAGs: the sequential engine walks them chunk
    by chunk ({!Transfer.dag}), the sharded engine ({!Shard}) keys every
    (flow, chunk, edge) statically, with the same per-hop arithmetic. *)

type dag = {
  d_link : int array;      (** per edge: the directed link it crosses *)
  d_deliver : int array;   (** per edge: destination endpoint to credit
                               on arrival, or -1 when the edge ends at
                               a relay/switch *)
  d_succ_off : int array;  (** CSR offsets into [d_succ]; length
                               [edges + 1] *)
  d_succ : int array;      (** successor edge indices, fired at this
                               edge's arrival time *)
  d_roots : int array;     (** edges released at the flow's arrival *)
}

val validate_dag : links -> dag -> (unit, string) result
(** Structural sanity: link ids in range, offsets monotone, successor
    indices in range, every root in range. *)

type flow = {
  f_id : int;              (** collective id (trace/fingerprint key) *)
  f_arrival : float;       (** release time of every chunk, seconds
                               (finite, >= 0) *)
  f_chunks : int;          (** chunk count (>= 1) *)
  f_chunk_bytes : float;   (** bytes per chunk transmission (finite,
                               > 0 unless no DAG has an edge) *)
  f_expected : int;        (** deliveries to credit before complete:
                               [chunks * |dests|] *)
  f_dags : dag array;      (** chunk [c] forwards over
                               [f_dags.(c mod Array.length f_dags)] —
                               one entry for single-tree schemes, two
                               for the double binary tree's parity
                               split *)
}

val flow_max_edges : flow -> int
(** Largest edge count ([Array.length d_link]) over the flow's DAG
    classes.  {!Shard} sizes its key's edge field from it: [ceil_log2]
    of the largest value over all flows, in bits, so every (flow,
    chunk, edge) packs into a unique, order-preserving integer of at
    most 62 bits. *)
