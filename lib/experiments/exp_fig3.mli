(** E2 — Figure 3: RSBF Bloom-filter per-packet header overhead versus
    fat-tree degree [k], for false-positive ratios 1-20%.

    The paper's claim: the header exceeds a full 1500 B MTU once the
    degree passes the low tens regardless of FPR, while PEEL's prefix
    header stays under 8 B. *)

type row = {
  k : int;
  by_fpr : (float * float) list;  (** (fpr, header bytes) *)
  peel_bytes : int;
}

val compute : unit -> row list
(** Unit-tested: no caller outside its own tests. *)

val run : Common.mode -> unit
