(** Dependency-free multicore execution: a [Domain]-based parallel map
    for embarrassingly-parallel experiment sweeps.

    The experiment harness spends nearly all of its wall time in
    independent seeded simulation cells, so the only primitive needed
    is an order-preserving [par_map].  Work is distributed by chunked
    work-stealing over a single atomic index; results are written into
    a pre-sized array slot per input, so the output list is always in
    input order and bit-identical to [List.map f] regardless of the
    worker count or scheduling.

    Determinism contract: provided [f] is deterministic per element and
    elements share no mutable state, [par_map f l = List.map f l] for
    every [jobs] and [chunk] value.  Exceptions raised by [f] are
    re-raised in the caller, and when several elements raise, the one
    with the lowest input index wins — again independent of
    scheduling.

    Nested calls run sequentially: a [par_map] issued from inside a
    worker falls back to [List.map], so callers never deadlock or
    oversubscribe by composing parallel code. *)

type t
(** A fixed worker count to run [par_map] under. *)

val create : ?jobs:int -> unit -> t
(** [create ~jobs ()] validates [jobs >= 1].  Default {!default_jobs}. *)

val jobs : t -> int

val hardware_jobs : unit -> int
(** [max 1 (Domain.recommended_domain_count () - 1)]: leave one core
    for the OS / the caller's other work. *)

val default_jobs : unit -> int
(** Worker count used when no pool is passed: the last
    {!set_default_jobs} value if any, else the [PEEL_JOBS] environment
    variable (ignored unless a positive integer), else
    {!hardware_jobs}. *)

val set_default_jobs : int -> unit
(** Override the default worker count process-wide (the [--jobs] CLI
    flag).  Raises [Invalid_argument] unless positive. *)

val par_map : ?pool:t -> ?chunk:int -> ('a -> 'b) -> 'a list -> 'b list
(** [par_map f l] is [List.map f l], computed by [jobs] domains (the
    calling domain plus [jobs - 1] spawned ones) stealing chunks of
    [chunk] consecutive indices from an atomic counter.  [chunk]
    defaults to a balance-friendly [max 1 (n / (8 * jobs))]; any
    positive value yields the same result.  Runs sequentially (no
    domains spawned) when [jobs = 1], when the list has fewer than two
    elements, or when called from inside another [par_map] worker.

    There is no standing pool of workers: every other call spawns
    [min (jobs - 1) (chunks - 1)] fresh domains and joins them before
    it returns, so each call pays for domain start-up and teardown
    whatever [f] costs.  On a 2-core x86-64 host a call over 8
    elements at 2 jobs took 0.14–0.42 ms (median 0.34 ms) beside the
    serve-churn benchmark's heap and 0.24–1.27 ms (median 0.82 ms)
    beside serve-ramp's ([util.pool.par_map_ns], ten traced runs). *)
