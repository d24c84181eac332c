(** Deterministic pseudo-random number generation.

    All randomness in this repository flows through this module so that
    every experiment is reproducible from a single integer seed.  The
    generator is SplitMix64 (Steele, Lea & Flood, OOPSLA'14): a tiny,
    statistically strong, splittable generator. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] makes a fresh generator from [seed]. *)

val split : t -> t
(** [split t] derives an independent generator; [t] advances.
    Unit-tested: no caller outside its own tests. *)

val copy : t -> t
(** [copy t] duplicates the current state (same future draws).
    Unit-tested: no caller outside its own tests. *)

val int : t -> int -> int
(** [int t n] is uniform in [\[0, n)]. Raises [Invalid_argument] if
    [n <= 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] inclusive.
    Unit-tested: no caller outside its own tests. *)

val float : t -> float -> float
(** [float t x] is uniform in [\[0, x)]. *)

val bool : t -> bool
(** Fair coin. *)

val exponential : t -> mean:float -> float
(** Exponentially distributed sample with the given mean. *)

val normal_pos : t -> mu:float -> sigma:float -> float
(** Gaussian sample truncated below at 0 (used for controller delays,
    which cannot be negative). *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val sample_without_replacement : t -> int -> int -> int list
(** [sample_without_replacement t n k] draws [k] distinct integers from
    [\[0, n)], in increasing order. Raises [Invalid_argument] if
    [k > n] or [k < 0]. *)
