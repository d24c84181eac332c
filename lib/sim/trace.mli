(** Structured, low-overhead event tracing for the simulator.

    The paper's evaluation (Figs. 5–7) argues entirely from what
    happens on the wire — queue backlog, ECN marking, DCQCN rate
    evolution, per-link utilization — so the simulator records those
    micro-events here: per-link reservations (with queueing delay and
    backlog), per-flow chunk releases and deliveries, congestion
    control activity (CNPs, rate cuts, §4 guard-timer holds) and loss
    events.

    A trace has a verbosity {!level}:

    - [Off]: every emitter returns immediately; the simulation's hot
      path does no tracing work and allocates nothing.  {!null} is a
      shared always-off trace, the default everywhere.
    - [Counters]: aggregate counters only — O(1) memory however long
      the run.
    - [Full]: counters plus the structured event log.  High-volume
      [Reserve] events can additionally be downsampled with the
      [sample] knob (record every Nth); counters stay exact.

    Events carry the simulation timestamp and are recorded in emit
    order, so a well-formed trace has non-decreasing timestamps —
    one of the invariants {!Peel_check.Check_sim.check_trace} lints.

    [flow] identifiers are the workload's collective ids
    ([Peel_workload.Spec.collective.id]); [-1] marks events the
    emitting layer cannot attribute to a flow (e.g. a per-hop unicast
    retransmission deep inside {!Transfer}). *)

(** Verbosity: [Off] does no work, [Counters] keeps the aggregate
    {!counters} in O(1) memory, [Full] additionally records the event
    log. *)
type level = Off | Counters | Full

type kind =
  | Reserve of { link : int; bytes : float; queue_delay : float; backlog : float }
      (** a chunk claimed [link]; [backlog] is the queue depth in
          seconds {e before} this reservation *)
  | Ecn_mark of { link : int; flow : int; chunk : int }
      (** queueing delay on [link] exceeded the ECN threshold *)
  | Delivery of { node : int; flow : int; chunk : int }
      (** a destination received a chunk (intermediate hops excluded) *)
  | Release of { flow : int; chunk : int; rate : float }
      (** the source emitted a chunk, paced at [rate] bytes/s *)
  | Cnp of { flow : int }  (** a congestion notification reached the sender *)
  | Rate_cut of { flow : int; rate : float }
      (** DCQCN halved the rate; [rate] is the new value *)
  | Guard_hold of { flow : int }
      (** the §4 guard timer suppressed a rate cut *)
  | Drop of { link : int }
      (** the loss model dropped a chunk on [link] (stamped at the
          chunk's reservation instant, keeping the log monotone) *)
  | Retransmit of { flow : int; node : int }
      (** a repair send (hop-local or end-to-end); [-1] = unattributed *)
  | Link_fail of { link : int }
      (** a scheduled fault took the duplex pair containing [link] down
          ([link] is the even direction's id) *)
  | Link_recover of { link : int }
      (** the duplex pair came back up *)
  | Replan of { flow : int; cost : int }
      (** the controller spliced a re-peeled tree into [flow]; [cost]
          is the new tree's link count *)
  | Rule_install of { group : int; switch : int; rules : int }
      (** the controller installed [group]'s exact replication entry at
          [switch]; [rules] is the entry's egress fan-out (ports) *)
  | Refine of { group : int; cost : int }
      (** [group]'s installs all landed — subsequent chunks ride the
          exact per-group tree of [cost] links (§3.3 stage two) *)
  | Evict of { group : int; switch : int }
      (** TCAM pressure at [switch] evicted [group]'s entries; the
          group falls back to static prefix rules *)

type event = { time : float; kind : kind }
(** One log entry, stamped with simulation time. *)

(** Aggregate counters, updated on every emit at [Counters] and [Full]
    (exact regardless of sampling).  [engine_events] and
    [engine_max_pending] are maintained by {!Engine}. *)
type counters = {
  mutable reservations : int;
  mutable bytes_reserved : float;
  mutable ecn_marks : int;
  mutable deliveries : int;
  mutable releases : int;
  mutable cnps : int;
  mutable rate_cuts : int;
  mutable guard_holds : int;
  mutable drops : int;
  mutable retransmits : int;
  mutable link_fails : int;
  mutable link_recovers : int;
  mutable replans : int;
  mutable rule_installs : int;
  mutable refines : int;
  mutable evictions : int;
  mutable plan_cache_hits : int;
      (** service planning-cache hits (trees + prefix plans) *)
  mutable plan_cache_misses : int;
  mutable engine_events : int;
  mutable engine_max_pending : int;
}

type t
(** A trace sink: a verbosity level, the counters, and (at [Full]) the
    growing event log. *)

val create : ?level:level -> ?sample:int -> unit -> t
(** [level] defaults to [Full]; [sample] (default 1) records every Nth
    [Reserve] event.  Raises [Invalid_argument] if [sample < 1]. *)

val null : t
(** The shared always-[Off] trace; all emitters are no-ops on it. *)

val enabled : t -> bool
(** [level t <> Off]. *)

val level : t -> level
(** The verbosity the trace was created with. *)

val counters : t -> counters
(** The live counter record (all zero on an [Off] trace). *)

val events : t -> event array
(** Recorded events in emit order (a copy; empty below [Full]). *)

val num_events : t -> int
(** Number of recorded events (0 below [Full]). *)

val sampled_out : t -> int
(** [Reserve] emissions the sampling knob skipped (so
    [reservations = reserve events + sampled_out] on a [Full] trace). *)

(** {1 Emitters}

    Called from the simulator's hot paths; each checks the level first
    and returns immediately on an [Off] trace. *)

val reserve :
  t -> time:float -> link:int -> bytes:float -> queue_delay:float ->
  backlog:float -> unit
(** A chunk of [bytes] claimed [link]; subject to the sampling knob
    (counters stay exact). *)

val ecn_mark : t -> time:float -> link:int -> flow:int -> chunk:int -> unit
(** A chunk of [flow] saw over-threshold queueing delay on [link]. *)

val delivery : t -> time:float -> node:int -> flow:int -> chunk:int -> unit
(** A destination [node] received [chunk] of [flow]. *)

val release : t -> time:float -> flow:int -> chunk:int -> rate:float -> unit
(** The source of [flow] emitted [chunk], paced at [rate] bytes/s. *)

val cnp : t -> time:float -> flow:int -> unit
(** A congestion notification reached [flow]'s sender. *)

val rate_cut : t -> time:float -> flow:int -> rate:float -> unit
(** DCQCN cut [flow]'s sending rate to [rate] bytes/s. *)

val guard_hold : t -> time:float -> flow:int -> unit
(** The §4 guard timer suppressed a rate cut for [flow]. *)

val drop : t -> time:float -> link:int -> unit
(** The loss model dropped a chunk on [link]. *)

val retransmit : t -> time:float -> flow:int -> node:int -> unit
(** A repair send for [flow] from [node] ([-1] = unattributed). *)

val link_fail : t -> time:float -> link:int -> unit
(** A fault schedule took a duplex pair down; [link] should be the even
    direction's id (see {!Peel_topology.Graph.duplex_ids}). *)

val link_recover : t -> time:float -> link:int -> unit
(** The duplex pair containing [link] came back up. *)

val replan : t -> time:float -> flow:int -> cost:int -> unit
(** The controller swapped [flow]'s multicast tree for a re-peeled one
    of [cost] links. *)

val rule_install : t -> time:float -> group:int -> switch:int -> rules:int -> unit
(** The controller installed [group]'s exact entry ([rules] egress
    ports) at [switch]. *)

val refine : t -> time:float -> group:int -> cost:int -> unit
(** [group] switched from static prefix rules to its exact per-group
    tree of [cost] links. *)

val evict : t -> time:float -> group:int -> switch:int -> unit
(** [group] lost its entries to TCAM pressure at [switch] and reverted
    to static prefix rules. *)

val plan_cache : t -> hits:int -> misses:int -> unit
(** Accumulate service planning-cache hit/miss totals (counters only —
    no event-log entry). *)

val note_engine : t -> events:int -> unit
(** Record the engine's processed-event count (monotone max). *)

val note_pending : t -> int -> unit
(** Record an event-queue depth sample (keeps the high-water mark). *)

(** {1 Aggregation} *)

type link_stats = {
  l_reservations : int;
  l_bytes : float;
  l_ecn_marks : int;
  l_max_backlog : float;   (** seconds of queue ahead, worst case *)
  l_sum_queue_delay : float;
}

val link_stats : t -> nlinks:int -> link_stats array
(** Per-link aggregates from the recorded [Reserve]/[Ecn_mark] events
    (subject to sampling; all-zero below [Full]).  Events naming a link
    [>= nlinks] are ignored. *)

type flow_stats = {
  f_flow : int;
  f_releases : int;
  f_deliveries : int;
  f_cnps : int;
  f_rate_cuts : int;
  f_guard_holds : int;
  f_retransmits : int;
  f_replans : int;
  f_first_delivery : float;      (** nan if none *)
  f_last_delivery : float;       (** nan if none *)
  f_mean_chunk_latency : float;  (** release-to-delivery; nan if unknown *)
  f_max_chunk_latency : float;   (** nan if unknown *)
}

val flow_stats : t -> flow_stats list
(** Per-flow aggregates from the event log, ascending flow id
    (unattributed [-1] events excluded).  Chunk latency pairs each
    delivery with its chunk's first [Release]. *)

(** {1 Export} *)

val counters_to_json : t -> Peel_util.Json.t
(** Counters as a flat JSON object (stable key names). *)

val events_to_json : t -> Peel_util.Json.t
(** The event log as a JSON array; every event is an object with ["t"]
    and ["kind"] plus the kind's fields. *)

val events_csv : t -> string
(** The event log as CSV: the header line
    [time,kind,link,node,flow,chunk,bytes,queue_delay,backlog,rate],
    then one line per event; fields a kind lacks are left empty.
    Control-plane events reuse the fixed columns:
    [switch] prints under [node], [group] under [flow], and a
    [Rule_install]'s [rules] under [chunk]. *)
