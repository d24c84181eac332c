(** E4 — Figure 5: mean and p99 CCT versus message size for all six
    schemes (512-GPU Broadcasts on the 1024-GPU fat-tree, Poisson
    arrivals at 30% offered load).

    The paper's claims: PEEL tracks the bandwidth-optimal baseline
    (mean within ~20-25%), beats Ring/Tree/Orca throughout, and
    programmable cores close most of the remaining gap at large
    messages (tail within 1.4% of optimal at 512 MB). *)

type row = {
  size_mb : float;
  scheme : Peel_collective.Scheme.t;
  mean : float;
  p99 : float;
}

val compute : ?scales:int -> Common.mode -> float list -> row list
(** [compute mode sizes_mb] at 30% load; [scales] defaults to 512. *)

val run : Common.mode -> unit
