(** Bounded keyed cache for planning results (trees, prefix plans,
    distance arrays).

    The service control plane keys entries by (source, member bitset):
    the multi-tenant Poisson mix creates many observationally identical
    groups, and a hit skips [Layer_peel]/[Plan.build] entirely.

    Determinism contract: a hit returns a value identical to
    recomputing it, so caching changes time, never behaviour.  The
    capacity bound drops {e insertions} (no eviction) — the cached key
    set is a deterministic function of the insertion sequence, never of
    hash order or timing.  Nothing invalidates entries: callers must
    not change the fabric under a live cache. *)

type ('k, 'v) t

val create :
  ?capacity:int -> hash:('k -> int) -> equal:('k -> 'k -> bool) -> unit -> ('k, 'v) t
(** [capacity] (default 65536) bounds the number of cached entries;
    once full, {!add} becomes a no-op.  [hash] must be non-negative and
    consistent with [equal]. *)

val find : ('k, 'v) t -> 'k -> 'v option
(** Lookup; bumps the hit or miss counter. *)

val add : ('k, 'v) t -> 'k -> 'v -> unit
(** Insert if absent and under capacity; silently skipped otherwise. *)

val memoize : ('k, 'v) t -> 'k -> (unit -> 'v) -> 'v
(** [memoize t k compute] is [find] + on-miss [compute ()] + [add]. *)

val length : ('k, 'v) t -> int
val hits : ('k, 'v) t -> int
val misses : ('k, 'v) t -> int
