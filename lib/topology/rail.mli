(** Rail-optimized fabric (the paper's §2.1 future-work topology, after
    Alibaba HPN / NVIDIA rail designs).

    Servers carry [rails] GPUs each.  GPU [r] of every server in a
    group connects to the group's rail-[r] ToR, so same-rail GPUs talk
    through one switch and cross-rail traffic either rides the server's
    NVSwitch or goes up to the spine tier.  All rail ToRs connect to
    all spines (two-tier core).

    Rail ToRs are numbered globally (group-major, rail-minor) in a
    single flat identifier space, which is what the prefix engine
    addresses. *)

type t = {
  rails : int;
  groups : int;
  servers_per_group : int;
  spines : int array;
  tors : int array;            (** group-major, rail-minor *)
  hosts : int array;           (** per-server NVSwitches *)
  gpus : int array;
  graph : Graph.t;
  tor_of_gpu : int array;      (** indexed by node id; -1 otherwise *)
  host_of_gpu : int array;
  gpus_of_host : int array array;
}

val create :
  rails:int ->
  groups:int ->
  servers_per_group:int ->
  spines:int ->
  unit ->
  t
(** All counts >= 1; [rails] is also the GPUs per server. *)

val num_gpus : t -> int

val spine_tor_duplex_links : t -> int array
(** Failure domain: all spine-to-rail-ToR cables. *)
