(** SoA store of live multicast-group state.

    Replaces the service's [(gid, gstate) Hashtbl] + member lists:
    every per-group field is a column indexed by a dense integer slot,
    and member sets are {!Peel_util.Bits.Bitset}s over the fabric's
    node ids (membership deltas are single-bit flips).  A departed
    group's slot goes on a stack of free slots, and the most recently
    freed slot is the next one handed out.  A free slot has gid [-1].
    It keeps its bitset for the next tenant and drops its tree, entry
    switches and distance array, so a departed group's state can be
    collected.  Holders of a group (the install queue, the TCAM, the
    lints) name it by gid and resolve it with {!find}.

    Trees and distance arrays are stored by reference and may be shared
    across slots (trees are immutable; distance arrays are per-source
    and never written after construction). *)

type stage = Pending | Installed | Fallback
(** Install lifecycle of a group (moved here from [Service], which
    re-exports it). *)

type t

val create : width:int -> unit -> t
(** [width] is the bitset universe — the fabric's node count.  The
    columns start at 1024 slots and grow geometrically. *)

val width : t -> int

val live : t -> int
(** Live group count — O(1). *)

val add :
  t ->
  gid:int ->
  source:int ->
  members:int list ->
  tree:Peel_steiner.Tree.t ->
  switches:int list ->
  dist:int array ->
  stage:stage ->
  int
(** Insert a new group, returning its slot.  Raises [Invalid_argument]
    if [gid] is negative or already present. *)

val remove : t -> gid:int -> bool
(** Free the group's slot for reuse; [false] if the gid is unknown. *)

val find : t -> gid:int -> int option
(** Slot of a live gid. *)

(** {2 Per-slot accessors} — valid only for live slots. *)

val gid : t -> int -> int
val source : t -> int -> int
val stage : t -> int -> stage
val set_stage : t -> int -> stage -> unit

val in_pending : t -> int -> bool
(** Whether the group currently sits in the service's pending-install
    queue — the O(1) tombstone consulted at flush instead of an
    O(pending) filter at departure. *)

val set_in_pending : t -> int -> bool -> unit

val tree : t -> int -> Peel_steiner.Tree.t
(** Raises [Invalid_argument] on a free slot. *)

val set_tree : t -> int -> Peel_steiner.Tree.t -> unit

val switches : t -> int -> int list
(** Entry switches of the current tree, ascending node id. *)

val set_switches : t -> int -> int list -> unit

val dist : t -> int -> int array
(** BFS distance array from the group's source (shared per source). *)

val members_bitset : t -> int -> Peel_util.Bits.Bitset.t
(** The live member set itself (mutations write through).  Raises
    [Invalid_argument] on a slot that never held a group. *)

val member_list : t -> int -> int list
(** Members ascending. *)

val add_member : t -> int -> int -> unit
val remove_member : t -> int -> int -> unit

val set_members : t -> int -> int list -> unit
(** Replace the member set.  Corruption hook: forges a member set
    SVC001 must diagnose. *)

val fold : ('a -> int -> 'a) -> t -> 'a -> 'a
(** Over live slots, ascending slot order. *)
