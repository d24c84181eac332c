(** The PEEL packet header: one [<prefix value, prefix length>] tuple
    (paper §3.2).

    For a [k]-ary fat-tree the ToR identifier space inside a pod has
    [m = log2(k/2)] bits, so the header needs [m] bits for the value
    plus [ceil(log2 (m+1))] bits for the length — [O(log k)], under 8
    bytes even at [k = 128]. *)

val header_bits : k:int -> int
(** [m + ceil(log2 (m+1))] — the paper's formula.  Raises
    [Invalid_argument] unless [k >= 4] and [k/2] is a power of two. *)

val header_bytes : k:int -> int
(** [header_bits] rounded up to whole bytes (what a packet actually
    carries). *)

type t = { prefix : Cover.prefix; raw : int }
(** A wire-encoded header: [raw] packs length then value. *)

val encode : m:int -> Cover.prefix -> t
(** Pack a prefix into its wire form for an [m]-bit identifier space.
    Raises [Invalid_argument] if the prefix does not fit. *)

val decode : m:int -> int -> Cover.prefix
(** Inverse of [encode] for the same [m]. Raises [Invalid_argument] on
    malformed input (length > m or value out of range). *)
