(** Aligned plain-text tables, used by the benchmark harness to print
    paper-shaped rows. *)

val print : header:string list -> string list list -> unit
(** Print a text table with columns padded to the widest cell.  Rows
    shorter than the header are padded with empty cells. *)

val fsec : float -> string
(** Format seconds with engineering-friendly precision (e.g. "0.0123 s",
    "85.1 us"). *)

val ffactor : float -> string
(** Format a ratio like "5.2x". *)
