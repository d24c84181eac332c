(** Endpoint-to-endpoint unicast paths with a global cache.

    Sibling GPUs talk over NVLink through the server's NVSwitch; all
    other pairs take the deterministic shortest fabric path.  Paths are
    cached per (fabric, src, dst) — ring and tree schedules revisit the
    same consecutive-id pairs across thousands of collectives.

    A cache miss runs [Graph.bfs_reach] on one scratch owned by [t]: the
    search stops at the destination's level and resumes while misses
    share a source, so a hop between nearby endpoints labels a small
    neighbourhood instead of the whole fabric, and no per-source
    distance arrays are kept.  The paths are the ones a full BFS gives,
    bit for bit. *)

open Peel_topology

type t

val create : ?ecmp:bool -> Fabric.t -> t
(** [ecmp] (default true) hash-selects among equal-cost paths per flow;
    [false] models a fabric that always picks the deterministic
    lowest-id path — the funneling ablation of E12. *)

val links : t -> int -> int -> int list
(** Directed link ids from one endpoint to another.  Raises
    [Invalid_argument] if disconnected. *)

val invalidate : t -> unit
(** Drop the cached paths and the live search.  Call it after failing
    or restoring links: both describe the link state they were computed
    on. *)
