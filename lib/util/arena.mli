(** Slot arena: free-list allocation of dense integer indices with
    per-slot generation counters.

    Data columns live outside the arena (SoA style); the arena only
    allocates/recycles slot indices and answers liveness questions.
    Generations let a holder of a stale [(slot, gen)] pair detect that
    the slot has been freed (and possibly recycled) since — the
    service's departed-group lint (SVC004) is built on this. *)

type t

val create : ?initial:int -> unit -> t
(** Empty arena. [initial] is the starting capacity hint (default 16);
    the arena grows geometrically on demand. *)

val alloc : t -> int * int
(** Allocate a slot; returns [(slot, generation)]. Recycles the most
    recently freed slot first, else extends the dense prefix. *)

val free : t -> int -> unit
(** Release a live slot, bumping its generation. Raises
    [Invalid_argument] if the slot is not live. *)

val is_live : t -> int -> bool

val generation : t -> int -> int
(** Current generation of [slot] (whether live or free). Raises
    [Invalid_argument] out of range. *)

val valid : t -> slot:int -> gen:int -> bool
(** [true] iff [slot] is live and its generation is still [gen]. *)

val live_count : t -> int
(** Number of live slots — O(1). *)

val capacity : t -> int
(** Current backing capacity (≥ the densest slot ever allocated). *)

val iter_live : (int -> unit) -> t -> unit
(** Iterate live slots in increasing slot order. *)

