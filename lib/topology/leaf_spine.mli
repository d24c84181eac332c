(** Two-tier leaf–spine fabric builder.

    Every leaf switch connects to every spine switch.  Each leaf serves
    [hosts_per_leaf] hosts; each host carries [gpus_per_host] GPUs on
    NVLink-class links.  The paper's Figure 7 fabric is 16 spines x 48
    leaves, 2 servers per leaf, 8 GPUs per server, 100 Gbps links. *)

type t = {
  spines : int array;
  leaves : int array;
  hosts : int array;
  gpus : int array;
  graph : Graph.t;
  hosts_per_leaf : int;
  gpus_per_host : int;
  leaf_of_host : int array;     (** indexed by node id *)
  host_of_gpu : int array;      (** indexed by node id *)
  hosts_of_leaf : int array array;
  gpus_of_host : int array array;
}

val create :
  ?gpus_per_host:int ->
  spines:int ->
  leaves:int ->
  hosts_per_leaf:int ->
  unit ->
  t

val num_hosts : t -> int
val num_gpus : t -> int

val spine_leaf_duplex_links : t -> int array
(** Duplex ids (even direction) of all spine-leaf links — the failure
    domain of the paper's Figure 7. *)
