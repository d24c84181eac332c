(** Fleet-level rule compiler: lower a whole batch of
    per-group send plans into concrete per-switch rule tables, sharing
    state across groups.

    The seed's data plane is "deploy-once": every aggregation switch
    holds the full [2^(m+1) - 1] static prefix table whether or not any
    running group uses a given rule.  This compiler instead installs
    exactly what a batch of concurrent groups needs:

    - {b dedup} — a prefix used by several groups becomes one shared
      entry (static rules are group-independent, so sharing is free);
    - {b aggregation} — when a per-switch entry budget is exceeded,
      sibling prefix pairs collapse into their parent and entries
      nested under an installed ancestor are dropped.  Lookup is
      longest-prefix-match, so plans keep their original headers: a
      header whose exact entry was merged away falls through to the
      nearest installed ancestor and replicates to the (larger) parent
      block.  Merging preserves the {e union} of installed blocks
      exactly; the price is per-group over-delivery (waste racks),
      never a missed member.

    Every merged entry records its pre-merge [sources], so the
    {!Check_compile} equivalence checker can prove aggregation
    soundness (CMP005: a merged rule's port set is the union of its
    sources') and per-group delivery equivalence (CMP001) statically,
    without running a simulation. *)

open Peel_topology
open Peel_prefix

type switch = Core | Agg of int  (** [Agg pod] — that pod's aggregation tier *)

val switch_to_string : switch -> string
(** ["core"] / ["agg[pod 3]"]. *)

type entry = {
  prefix : Cover.prefix;
  ports : int list;
      (** replication ports — the prefix's full block, ascending *)
  owners : int list;
      (** group ids whose headers longest-prefix-match this entry,
          ascending; never empty in a well-formed table *)
  sources : Cover.prefix list;
      (** the pre-aggregation prefixes folded into this entry, sorted
          by block start; [\[prefix\]] when unmerged *)
}

type table = {
  switch : switch;
  id_bits : int;       (** match-field width [m] of this table *)
  entries : entry list;
      (** longest-prefix-match priority order: longer [len] first,
          then ascending [value] *)
}

type t = {
  capacity : int option;  (** the per-switch entry budget compiled against *)
  aggregated : bool;
  merges : int;           (** sibling collapses + ancestor folds performed *)
  m_tor : int;
  m_pod : int;
  tables : table list;    (** [Core] first (multi-pod fabrics only), then
                              [Agg] pods ascending *)
  batch : (int * Peel.Plan.t) list;  (** the compiled input, in input order *)
}

val compile :
  ?capacity:int -> ?aggregate:bool -> Fabric.t -> (int * Peel.Plan.t) list -> t
(** Compile a batch of [(group, plan)] pairs.  Entries are deduplicated
    across groups always; with [aggregate] (default false) tables over
    [capacity] are additionally merged — cheapest waste first — until
    they fit (or no sound merge remains; see {!fits}).  [aggregate]
    without [capacity] merges each table to its minimum (the canonical
    exact cover of the union of used blocks).  Raises
    [Invalid_argument] on duplicate group ids, a plan whose prefixes
    fall outside the fabric's id spaces, or a negative pod. *)

val lpm : table -> Cover.prefix -> entry option
(** The longest installed prefix whose block contains the header's
    block — the compiled data plane's match step.  [None] = no rule,
    packet dropped. *)

val deliver_group : Fabric.t -> t -> group:int -> int list
(** Replay every packet of [group]'s plan through the compiled tables
    (encode -> LPM -> replicate): ToR node ids reached, ascending.
    Raises [Invalid_argument] if the group is not in the batch. *)

val group_waste : Fabric.t -> t -> group:int -> int list
(** Reached racks housing no destination of the group — the plan's own
    budgeted over-cover plus any aggregation-induced over-delivery. *)

val entry_bytes : m:int -> int
(** Exact hardware footprint of one entry in an [m]-bit table: the
    [<value,len>] match field plus a [2^m]-wide port bitmap, in whole
    bytes.  Unit-tested: no caller outside its own tests. *)

val table_bytes : table -> int
(** {!entry_bytes} summed over the table's entries. *)

val footprint : t -> (switch * int * int) list
(** Per switch: [(switch, entries, bytes)], in table order. *)

val max_entries : t -> int
(** Busiest compiled table — the number CMP004 proves against the
    budget. *)

val total_entries : t -> int
(** Entries summed over every compiled table. *)

type footprint
(** The (switch, prefix) uses of one group's plan, validated against
    the fabric's id spaces and packed injectively into ints: what
    {!count_entries} counts, a few words a plan where the plan itself
    is lists of packet records. *)

val plan_footprint : Fabric.t -> group:int -> Peel.Plan.t -> footprint
(** [plan]'s uses at the core tier (its pod prefixes) and at each pod's
    aggregation tier (its ToR prefixes).  Raises [Invalid_argument]
    with {!compile}'s text when a prefix falls outside the fabric's id
    spaces or a pod is negative (naming [group]).  Also raises, where
    {!compile} accepts the plan, when a use needs more than 62 bits: a
    pod of [2^(62 - b) - 1] or more, with [b] one more than the wider
    of the ToR and pod id spaces. *)

val count_footprints : footprint list -> int
(** Distinct uses over the footprints, all of one fabric:
    [total_entries (compile fabric batch)] for the plans they came
    from. *)

val count_entries : Fabric.t -> (int * Peel.Plan.t) list -> int
(** [total_entries (compile fabric batch)] without building the
    tables: the unaggregated entry count is the number of distinct
    (switch, prefix) pairs the batch uses, {!count_footprints} of the
    plans' footprints.  Validates the batch (duplicate group ids,
    foreign prefixes, negative pods) exactly as {!compile} does; the
    one raise {!compile} lacks is {!plan_footprint}'s on a use wider
    than 62 bits. *)

val fits : t -> bool
(** Every table within [capacity] ([true] when no capacity was
    given). *)

val find_table : t -> switch -> table option
(** The compiled table installed at [switch], if any. *)
