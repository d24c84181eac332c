(** Static TCAM rule tables and switch-state accounting (paper §3.2).

    Every aggregation switch pre-installs one forwarding rule per
    power-of-two block of the pod's ToR identifier space: lengths
    0..m give [1 + 2 + ... + 2^m = 2^(m+1) - 1 = k - 1] rules in a
    [k]-ary fat-tree.  The data plane is fully static ("deploy-once,
    touch-never"): a packet's [<prefix,len>] header selects one rule,
    and the switch replicates to the block's ports.  Naive IP multicast
    would instead need one entry per possible receiver subset of the
    pod, [2^(k/2)] entries — the paper's 4-billion-versus-63
    comparison at [k = 64]. *)

type rule = {
  prefix : Cover.prefix;
  ports : int list;  (** ToR identifiers (= downlink ports) in the block *)
}

type table

val static_table : m:int -> table
(** All power-of-two rules over an [m]-bit identifier space. *)

val id_bits : table -> int
(** The [m] the table was built for (identifier-space width in bits). *)

val rules : table -> rule list
val size : table -> int
(** Number of installed rules = [2^(m+1) - 1]. *)

val lookup : table -> Cover.prefix -> rule
(** The unique rule matching a header.  Raises a descriptive
    [Invalid_argument] for a prefix outside the table's id space
    (wrong [m], out-of-range value) — adversarial inputs reach this
    path through the compiler's conflict checker, so the error names
    the offending prefix and the table width. *)

val match_ports : table -> Header.t -> m:int -> int list
(** Full data-plane path: decode the wire header, look up the rule,
    return the replication port set.
    Unit-tested: no caller outside its own tests. *)

(** {1 State accounting (paper §1 and §3.2)} *)

val peel_entries : k:int -> int
(** [k - 1]. *)

val naive_ipmc_entries : k:int -> float
(** [2^(k/2)] possible groups per pod (as a float: it overflows 64-bit
    integers for k >= 128). *)

val state_reduction_factor : k:int -> float
(** naive / PEEL. *)
