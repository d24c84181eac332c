(** Bounded cache of planning results keyed by (source, node set).

    The service control plane keeps two: the full peel (tree and entry
    switches) keyed by (source, member set), because a tree spans
    exact endpoints, and the prefix plan's rule footprint keyed by the
    group's destination-rack set (the ToRs of its members but the
    source) under a constant source, because the footprint reads
    nothing finer.  The multi-tenant Poisson mix creates many groups
    with one key, and a hit skips [Layer_peel] or [Plan.build].
    Per-source distance arrays are exact per-source data and live in
    the service, not here.

    Key format: the node set's backing bytes ([Bitset.write_slice])
    sit in one [Bytes] arena at [entry * ((width + 7) / 8)], beside int
    columns for the source and the key hash; an open-addressing table
    of entry indices (linear probing, at most half full) finds them.
    There is no boxed key: a lookup borrows the caller's live bitset,
    and an insertion copies its bytes into the arena, so later
    mutation of the live set cannot change a stored key.

    Determinism contract: a hit returns a value identical to
    recomputing it, so caching changes time, never behaviour.  The
    capacity bound drops {e insertions} (no eviction), so hits, misses
    and entries are a function of the lookup and insertion sequence
    alone, never of hash order or timing.  Nothing invalidates
    entries: callers must not change the fabric under a live memo.

    Cost, measured on a 2-core x86-64 host over 44-node keys: a hit
    allocates no minor words, and an insertion none beyond the
    columns' doubling growth (4.0 words per insertion over the first
    600 into a fresh memo, 0 once the columns have room).  An entry
    holds (width + 7) / 8 key bytes, two ints, its value and two to
    four table slots. *)

type 'v t

val create : ?capacity:int -> width:int -> unit -> 'v t
(** A memo over node sets of universe [\[0, width)].  [capacity]
    (default 65536) bounds the number of entries; once full, {!add} is
    a no-op.  Columns start small and double as entries arrive.
    Raises [Invalid_argument] if [capacity < 1] or [width < 0]. *)

val find : 'v t -> source:int -> Peel_util.Bits.Bitset.t -> int
(** The entry index of [(source, set)], or [-1] when absent; bumps the
    hit or miss counter.  Allocation-free.  Raises [Invalid_argument]
    if the set's width is not the memo's. *)

val get : 'v t -> int -> 'v
(** [get t i] is the value of the entry [find] returned as [i]. *)

val add : 'v t -> source:int -> Peel_util.Bits.Bitset.t -> 'v -> unit
(** Insert [(source, set)] with its value if absent and under
    capacity; silently skipped otherwise.  Touches no counter.  Raises
    [Invalid_argument] if the set's width is not the memo's. *)

val length : 'v t -> int
val hits : 'v t -> int
val misses : 'v t -> int
