(** Imperative min-priority queue of [int] payloads keyed by float
    priority: a flat binary heap plus a FIFO lane (the module name is
    historical).

    Its users are [Peel_sim.Engine] (the discrete-event simulator's
    event queue, which queues slot ids), [Peel_workload.Stream]'s
    int-coded timers and [Peel_steiner.Exact]'s Dijkstra frontier
    (node ids), so the implementation favours low constant factors:
    priorities, insertion stamps and payloads sit in three unboxed
    columns, so a sift never touches a pointer or the GC write barrier;
    sifts move entries into a hole and write each one once; nothing is
    allocated per push or pop beyond amortized array growth.

    {b Order.}  Entries pop in (priority, insertion order): the minimum
    priority first, FIFO among equal priorities, so simulation runs are
    fully deterministic.

    {b The lane.}  A push at the priority most recently popped — an
    event loop scheduling at the instant it is executing — appends to
    a FIFO lane in O(1) instead of sifting through the heap.  The
    lane's priority changes only at a pop that leaves the lane empty,
    so every lane entry has it, and a heap entry at that priority is
    always older than every lane entry.  A pop therefore takes the
    heap's top when its priority is at most the lane's and the lane's
    head otherwise, which is exactly the (priority, insertion order)
    minimum for any push sequence, monotone or not.  The lane is
    invisible to callers except through speed. *)

type t

val create : unit -> t

val push : t -> float -> int -> unit
(** [push t p x] inserts [x] with priority [p]. *)

val min_prio : t -> float
(** The priority of the entry {!pop_min} would return next.  Raises
    [Invalid_argument] when the queue is empty. *)

val pop_min : t -> int
(** Remove and return the minimum entry: least priority, FIFO among
    equal priorities.  Read its priority with {!min_prio} first.
    Raises [Invalid_argument] when the queue is empty.  Allocates
    nothing. *)

val is_empty : t -> bool

val length : t -> int
(** Entries queued, heap and lane together. *)
