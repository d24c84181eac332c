(** Small integer/bit utilities used by topology addressing and the
    prefix engine. *)

val is_power_of_two : int -> bool
(** [is_power_of_two n] for [n >= 1]; [false] for [n <= 0]. *)

val ilog2 : int -> int
(** Floor of log2; raises [Invalid_argument] for [n <= 0]. *)

val ceil_log2 : int -> int
(** Ceiling of log2; [ceil_log2 1 = 0]. Raises for [n <= 0]. *)

val pow2 : int -> int
(** [pow2 n] = 2^n for [0 <= n < 62]. *)

val ceil_div : int -> int -> int
(** Integer division rounding up. *)

val bit : int -> int -> bool
(** [bit x i] is the [i]-th least significant bit of [x]. *)

(** Mutable fixed-width bitsets over a [Bytes.t] backing store.

    Used by the service control plane for compact group-member sets:
    membership deltas become single-bit flips, and set equality/hash —
    the memoization-cache key operations — are flat byte scans instead
    of list walks. *)
module Bitset : sig
  type t

  val create : int -> t
  (** [create width] is the empty set over universe [0, width). *)

  val width : t -> int
  (** Universe size the set was created with. *)

  val add : t -> int -> unit
  val remove : t -> int -> unit

  val clear : t -> unit
  (** Remove every element. *)

  val hash : t -> int
  (** FNV-1a over width + backing bytes; non-negative. Equal sets hash
      equal; collisions possible (pair with {!equal_slice}). *)

  val write_slice : t -> Bytes.t -> int -> unit
  (** [write_slice s b off] copies [s]'s backing store, the
      [(width s + 7) / 8] bytes that {!hash} reads, into
      [b] at [off]: a set stored in a shared byte arena, which later
      changes to [s] cannot reach.  Raises [Invalid_argument] if the
      slice does not fit in [b]. *)

  val equal_slice : t -> Bytes.t -> int -> bool
  (** [equal_slice s b off] is whether the [(width s + 7) / 8] bytes
      at [off] in [b] are [s]'s backing store: after
      [write_slice s' b off], it is whether [s] and [s'] hold the same
      elements, for every [s] of the same width as [s'].
      Allocation-free.  Raises [Invalid_argument]
      if the slice does not fit in [b]. *)

  val iter : (int -> unit) -> t -> unit
  (** Elements in increasing order. *)

  val to_list : t -> int list
  (** Elements in increasing order. *)

  val of_list : width:int -> int list -> t
end
