(** E14 (extension) — multi-tenant switch state (the §1/§3 motivation:
    "thousands of concurrent training jobs can spawn thousands of
    multicast groups, quickly overflowing switch TCAMs").

    Draws G concurrent jobs with bin-packed placements on the Fig. 5
    fat-tree and counts the worst-case per-switch TCAM load under naive
    per-group IP multicast (one entry per group per switch its tree
    uses) versus PEEL's fixed [k - 1] static rules.  A commodity switch
    holds a few thousand multicast entries. *)

type row = {
  groups : int;
  ipmc_max_entries : int;  (** busiest switch, per-group entries *)
  peel_entries : int;      (** constant *)
  overflows_4k : bool;     (** busiest switch exceeds a 4K TCAM *)
}

val compute : Common.mode -> row list
(** Unit-tested: no caller outside its own tests. *)

val run : Common.mode -> unit
