(** Analytic model of RSBF-style Bloom-filter multicast headers
    (paper §3.1, Figure 3).

    Bloom-filter schemes push the multicast tree into the packet: the
    header encodes every (switch, outgoing port) pair of the tree in a
    Bloom filter sized for a target false-positive ratio.  The filter
    needs [log2(1/p) / ln 2 ~ 1.44 * log2(1/p)] bits per element, and
    for a fabric-wide broadcast in a [k]-ary fat-tree the element count
    grows like [k^3/4] — so the header blows through a 1500 B MTU in
    the tens of [k] regardless of how generous [p] is, and the
    surviving false positives additionally spray traffic onto links
    outside the tree. *)

val bits_per_element : fpr:float -> float
(** Optimal Bloom-filter bits per element for false-positive rate
    [fpr] in (0, 1).  Unit-tested: no caller outside its own tests. *)

val header_bytes : k:int -> fpr:float -> float
(** Bloom-filter header size for a fabric-wide broadcast. *)

val exceeds_mtu : k:int -> fpr:float -> unit -> bool
(** Whether the header outgrows a 1500 B MTU.  Unit-tested: no caller
    outside its own tests. *)

val bandwidth_overhead : k:int -> fpr:float -> payload:int -> float
(** Header bytes / payload bytes — the fraction of link capacity spent
    on the header itself (>1 = more header than payload).
    Unit-tested: no caller outside its own tests. *)

val expected_false_positive_links : k:int -> fpr:float -> float
(** Expected number of non-tree switch ports that falsely match the
    filter during one broadcast — redundant traffic injected per
    message.  Unit-tested: no caller outside its own tests. *)
