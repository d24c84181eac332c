(** Conservative parallel discrete-event engine over pod shards.

    A {!plan} is a set of flattened flows ({!Soa.flow}) over a sharded
    fabric ({!Soa.sharding}).  Execution shards the event loop by pod:
    each worker domain owns the links whose source node lives in its
    shard and processes events in {e conservative windows}.  At a
    barrier epoch every shard publishes its local minimum timestamp;
    the global minimum [W] plus the sharding's lookahead [L] bounds the
    window, each shard executes its events with [t < W + L]
    independently, and cross-shard events (which necessarily cross a
    boundary link, hence land at or beyond [W + L]) are exchanged at
    the closing barrier.  No null messages are ever sent.

    {b Determinism.}  Every event carries a static integer key encoding
    (flow, chunk, edge), and each shard pops in (time, key) order.  The
    key packs the three into power-of-two fields, flow highest: the
    edge field is wide enough for the largest DAG, the chunk field for
    the largest chunk count, the flow field for the flow count.  Each
    field stays below its width, so keys order like the triples, and a
    shift and a mask decode each field.
    Because a link is reserved only by its owning shard, the
    per-link reservation sequence is the (time, key) total order
    restricted to that link — independent of the shard count — and the
    completion reductions (delivery counts, last-delivery max, busy
    sums, fingerprint xor) are order-insensitive.  [jobs = n] is
    therefore bit-identical to [jobs = 1], which the @par-smoke alias
    and the QCheck differential in [test/test_parsim.ml] enforce.

    Scope: fault-free, loss-free, uncontrolled-rate scenarios (the
    schemes {!Peel_collective.Par} flattens).  Faults, loss models and
    DCQCN remain on the sequential {!Engine} path. *)

type plan
(** A frozen, validated execution plan: flows, link tables, sharding
    and the static key layout. *)

val plan : links:Soa.links -> sharding:Soa.sharding -> Soa.flow array -> plan
(** Validate every flow's DAGs against the link table and freeze the
    key layout.  Raises [Invalid_argument] on a malformed DAG, a flow
    with [f_chunks < 1], an [f_arrival] that is not finite and [>= 0],
    an [f_chunk_bytes] that is not finite and [> 0] on a flow whose
    DAGs have an edge (a flow without one sends nothing), or a key
    layout wider than 62 bits: [ceil_log2] of the flow count, the
    largest chunk count and the largest DAG's edge count, summed. *)

(** One conservative window as one shard saw it — the evidence SIM008
    ({!Peel_check.Check_sim.check_shard}) audits. *)
type audit_record = {
  a_shard : int;      (** shard that recorded the window *)
  a_window : int;     (** window ordinal, starting at 0 *)
  a_bound : float;    (** exclusive execution bound [W + L] *)
  a_max_exec : float; (** largest timestamp executed in the window
                          ([neg_infinity] if the shard ran nothing) *)
  a_min_in : float;   (** smallest cross-shard timestamp received at
                          the closing barrier ([infinity] if none) *)
  a_events : int;     (** events the shard executed in the window *)
}

type result = {
  r_ccts : float array;     (** per flow, plan order: last delivery −
                                arrival (0 for destination-less flows) *)
  r_events : int;           (** events executed across all shards *)
  r_makespan : float;       (** latest arrival of any edge (matches the
                                sequential engine's final clock) *)
  r_busy : float array;     (** per-link busy seconds (telemetry) *)
  r_fingerprint : int;      (** order-insensitive hash over every
                                (flow, chunk, node, time) delivery —
                                the bit-identity witness the
                                differential tests compare *)
  r_windows : int;          (** conservative windows executed *)
  r_audit : audit_record array;  (** window evidence, all shards, empty
                                     unless [run ~audit:true] *)
}

val run : ?audit:bool -> plan -> result
(** Execute the plan: sequentially when the sharding has one shard,
    otherwise on [nshards] domains with barrier-epoch windows.
    Raises [Failure] if any flow finishes with missing deliveries
    (an unreachable destination would show up here). *)
