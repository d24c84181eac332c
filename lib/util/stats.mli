(** Summary statistics for experiment outputs.

    The paper reports mean and 99th-percentile collective completion
    times; this module provides exact percentiles over collected
    samples. *)

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

val mean : float list -> float
(** Arithmetic mean; raises on empty input. *)
