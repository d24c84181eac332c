(** E7 — switch state and header accounting (paper §1, §3.2).

    The headline numbers: a 64-ary fat-tree (65,536 hosts) needs just
    63 static TCAM rules per aggregation switch instead of the ~4x10^9
    entries naive IP multicast would require, and the PEEL header stays
    under 8 B even at k = 128. *)

type row = {
  k : int;
  hosts : int;
  peel_rules : int;
  naive_entries : float;
  reduction : float;
  header_bytes : int;
}

val compute : unit -> row list
(** Unit-tested: no caller outside its own tests. *)

val run : Common.mode -> unit
