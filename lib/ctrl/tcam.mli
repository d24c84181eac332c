(** Bounded per-switch TCAM state for exact per-group replication
    rules.

    Each programmable switch holds at most [capacity] per-group
    entries.  Installing a group into a full switch evicts victims
    until it fits; the victim is chosen by the eviction [policy]:

    - [Lru]: the entry with the oldest [last_used] stamp,
    - [Bytes_weighted]: the entry that has carried the fewest bytes,

    with ties broken deterministically by the lowest group id, so a
    fixed seed replays bit-identically.  Victim selection is an indexed
    binary min-heap over (score, group id) per switch — O(log n) per
    eviction instead of a table scan, with the same winner the scan
    would pick.  The controller (not this module) decides what an
    eviction means for the victim group — here it is pure table
    bookkeeping.

    One table holds every switch: a per-switch entry map and victim
    heap, a group-to-switches index for {!remove_group}, and three
    counters. *)

(** Eviction-victim selection (see the module header for the rules). *)
type policy = Lru | Bytes_weighted

val policy_to_string : policy -> string
(** ["lru"] / ["bytes"], as accepted by the CLI. *)

val policy_of_string : string -> policy option
(** Inverse of {!policy_to_string}; [None] on an unknown name. *)

type t
(** The mutable table state across every switch. *)

val create : capacity:int -> policy:policy -> t
(** An empty table.  Raises [Invalid_argument] if [capacity < 1]. *)

val create_sharded :
  capacity:int -> policy:policy -> shards:int -> shard_of:(int -> int) -> t
(** [create ~capacity ~policy] after checking [shards >= 1] (raises
    [Invalid_argument] otherwise); [shard_of] is ignored.  This shim
    stays only because the benchmark's [ctrl.tcam.install_ns] probe
    calls it, and goes with the next change to the benchmark (ROADMAP
    item 19). *)

val capacity : t -> int
(** The per-switch entry budget. *)

val install : t -> now:float -> switch:int -> group:int -> int list
(** Install [group]'s entry at [switch], evicting victims as needed.
    Returns the evicted group ids (oldest victim first; [] if the
    entry fit or was already present).  The caller must finish each
    victim off with {!remove_group} — a group with entries missing at
    one switch cannot replicate exactly anywhere. *)

val install_strict : t -> now:float -> switch:int -> group:int -> bool
(** Admission-control variant of {!install}: install [group]'s entry at
    [switch] only if it fits without displacing anyone.  Returns
    whether the entry is now present ([true] if it fit or was already
    installed, [false] if the switch is full — nothing is evicted).
    The rule compiler's E18 baseline uses this to find the exact
    per-group install saturation point of a TCAM budget. *)

val touch : t -> now:float -> switch:int -> group:int -> bytes:float -> unit
(** Account a chunk of [bytes] through [group]'s entry at [switch]
    (updates the LRU stamp and the byte weight); no-op if absent. *)

val remove_at : t -> switch:int -> group:int -> bool
(** Drop [group]'s entry at [switch] only (a membership delta freeing
    a switch the updated tree no longer visits); returns whether an
    entry was removed.  Not counted as an eviction. *)

val remove_group : t -> group:int -> int
(** Drop [group]'s entries at every switch (departure or eviction
    fallout); returns how many were removed.  Not counted as
    evictions. *)

val holds : t -> switch:int -> group:int -> bool
(** Whether [group]'s entry is currently installed at [switch]. *)

val used : t -> switch:int -> int
(** Entries currently installed at [switch]. *)

val occupancy : t -> (int * int) list
(** [(switch, entries)] pairs, ascending switch id. *)

val groups_at : t -> switch:int -> int list
(** Group ids holding an entry at [switch], ascending — the full-table
    scan the SVC stale-rule lint walks. *)

val installs : t -> int
(** Total entries ever installed. *)

val evictions : t -> int
(** Total victims displaced by {!install}. *)

val max_used : t -> int
(** High-water occupancy across all switches — the CTRL002 witness. *)
