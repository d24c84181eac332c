(** k-ary fat-tree builder (Al-Fares et al. style).

    A [k]-ary fat-tree has [k] pods; each pod holds [k/2] ToR (edge)
    switches and [k/2] aggregation switches; there are [(k/2)^2] core
    switches.  Aggregation switch [a] of every pod connects to cores
    [a*(k/2) .. a*(k/2)+k/2-1].  Each ToR serves [hosts_per_tor] hosts
    (default [k/2]); each host carries [gpus_per_host] GPUs attached by
    NVLink-class links.

    The paper's evaluation uses an 8-ary fat-tree with 4 servers per ToR
    and 8 GPUs per server (1024 GPUs), 100 Gbps fabric links and
    900 GB/s NVLink. *)

type t = {
  k : int;
  hosts_per_tor : int;
  gpus_per_host : int;
  graph : Graph.t;
  pods : int;
  tors : int array;             (** all ToR node ids, pod-major order *)
  aggs : int array;             (** all aggregation switch ids *)
  cores : int array;
  hosts : int array;
  gpus : int array;
  tors_of_pod : int array array;
  aggs_of_pod : int array array;
  tor_of_host : int array;      (** indexed by node id *)
  host_of_gpu : int array;      (** indexed by node id *)
  hosts_of_tor : int array array; (** indexed by ToR position in [tors] *)
  gpus_of_host : int array array; (** indexed by host position in [hosts] *)
}

val create :
  ?hosts_per_tor:int ->
  ?gpus_per_host:int ->
  k:int ->
  unit ->
  t
(** [create ~k ()] builds the fabric. [k] must be even and >= 2.
    Defaults: [hosts_per_tor = k/2], [gpus_per_host = 0].  Network
    links run at 12.5e9 B/s (100 Gbps) with 500e-9 s latency, NVLinks
    at 900e9 B/s. *)

val num_hosts : t -> int
val num_gpus : t -> int

val fabric_duplex_links : t -> [ `Tor_up | `Agg_up | `All ] -> int array
(** Duplex link ids (even direction) for a tier: [`Tor_up] = ToR-to-Agg,
    [`Agg_up] = Agg-to-Core, [`All] = both. Host and GPU links are never
    included. *)
