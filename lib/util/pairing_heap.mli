(** Imperative binary min-heap keyed by float priority (a flat binary
    heap; the module name is historical).

    Its users are [Peel_sim.Engine] (the discrete-event simulator's
    event queue), [Peel_workload.Stream]'s timers and
    [Peel_steiner.Exact]'s Dijkstra frontier, so the implementation
    favours low constant factors: flat parallel arrays (priorities
    unboxed, so sift comparisons stay inside one cache-warm
    [float array] even at hundreds of thousands of pending entries),
    hole-based sifts that write each moved entry once, no per-node
    allocation beyond the stored element.  Ties are broken by
    insertion order (FIFO) so simulation runs are fully
    deterministic. *)

type 'a t

val create : unit -> 'a t

val push : 'a t -> float -> 'a -> unit
(** [push t p x] inserts [x] with priority [p]. *)

val pop : 'a t -> (float * 'a) option
(** Remove and return the minimum-priority element; FIFO among equal
    priorities. *)

val peek : 'a t -> (float * 'a) option
val is_empty : 'a t -> bool
val length : 'a t -> int
val clear : 'a t -> unit
