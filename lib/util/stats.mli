(** Summary statistics for experiment outputs.

    The paper reports mean and 99th-percentile collective completion
    times; this module provides exact percentiles over collected samples
    plus streaming (Welford) moments for cheap online accounting. *)

type summary = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

val summarize : float list -> summary
(** Exact summary of a non-empty sample list. Raises
    [Invalid_argument] on an empty list. *)

val summarize_array : float array -> summary
(** Same over an array (the array is not modified). *)

val percentile : float array -> float -> float
(** [percentile sorted q] with [q] in [\[0,1\]] using linear
    interpolation between closest ranks. The input must be sorted. *)

val mean : float list -> float
(** Arithmetic mean; raises on empty input. *)

(** Streaming mean/variance accumulator (Welford's algorithm). *)
module Online : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val mean : t -> float
  val variance : t -> float
  val stddev : t -> float
  val min : t -> float
  val max : t -> float
end

(** Fixed-bin histogram over [\[lo, hi)] for distribution shaping. *)
module Histogram : sig
  type t

  val create : lo:float -> hi:float -> bins:int -> t
  val add : t -> float -> unit

  val counts : t -> int array
  (** Per-bin counts; samples outside the range land in the first or
      last bin. *)

  val total : t -> int
end
