(** Directed-graph substrate for Clos fabrics.

    Every physical cable is represented as a pair of directed links with
    ids [2n] and [2n+1]; [peer_link] maps one direction to the other.
    Links can be marked down to model failures (the paper's "asymmetric
    Clos"); all traversals honour link state.

    Node ids are dense (0..n-1) and index into arrays everywhere, which
    keeps BFS and the simulator allocation-free on the hot path. *)

type kind =
  | Gpu   (** accelerator with a dedicated NIC to the ToR plus NVLink *)
  | Host  (** server NIC (no GPUs) or the server's NVSwitch (with GPUs) *)
  | Tor   (** top-of-rack / edge / leaf switch *)
  | Agg   (** aggregation switch (fat-tree middle tier) *)
  | Core  (** fat-tree core switch *)
  | Spine (** leaf–spine spine switch *)

val kind_to_string : kind -> string
val kind_is_switch : kind -> bool

type node = {
  id : int;
  kind : kind;
  pod : int;  (** pod number; -1 when not applicable (cores, spines) *)
  idx : int;  (** index within its kind group (e.g. ToR number in pod) *)
}

type link = {
  link_id : int;
  src : int;
  dst : int;
  bandwidth : float;  (** bytes per second *)
  latency : float;    (** propagation delay, seconds *)
  mutable up : bool;
}

type t

(** {1 Construction} *)

module Builder : sig
  type graph := t
  type t

  val create : unit -> t

  val add_node : t -> kind -> pod:int -> idx:int -> int
  (** Returns the new node's id. *)

  val add_duplex : t -> ?latency:float -> bandwidth:float -> int -> int -> int
  (** [add_duplex b a c] adds links [a -> c] and [c -> a]; returns the
      id of the [a -> c] direction (the peer is that id xor 1).
      Default latency is 500 ns. *)

  val finish : t -> graph
end

(** {1 Accessors} *)

val num_nodes : t -> int
val num_links : t -> int
val node : t -> int -> node
val link : t -> int -> link
val nodes : t -> node array
val links : t -> link array

val peer_link : int -> int
(** The opposite direction of a duplex pair. *)

val out_links : t -> int -> (int * int) array
(** [out_links t v] are [(neighbor, link_id)] pairs, including links
    currently down — callers filter via [link_up]. *)

val link_up : t -> int -> bool

val degree : t -> int -> int
(** Structural out-degree (links counted whether up or down) — the
    quantity the zoo's degree invariants (TOPO002) are stated over. *)

val up_degree : t -> int -> int
(** Out-degree over links currently up. *)

val link_between : t -> int -> int -> int option
(** First (lowest-id) up link from one node to another, if any. *)

val fold_kind : t -> kind -> ('a -> node -> 'a) -> 'a -> 'a
val nodes_of_kind : t -> kind -> int array

(** {1 Failures} *)

val fail_link : t -> int -> unit
(** Marks both directions of the duplex pair containing this id down. *)

val recover_link : t -> int -> unit
(** Marks both directions of the duplex pair up again — the exact
    inverse of [fail_link]: adjacency is untouched by either, so a
    fail/recover round trip restores the graph bit-for-bit. *)

val restore_all : t -> unit

val duplex_ids : t -> int array
(** One id per duplex pair (the even direction). *)

(** {1 Traversal} *)

val unreachable : int
(** Distance marker for unreachable nodes. *)

val bfs_dist : t -> int -> int array
(** Hop distance from a source over up links: the search of [bfs_reach]
    run until its queue is empty, in a fresh array. *)

type bfs
(** A reusable search scratch: a distance array and a FIFO, each of
    [num_nodes] ints, allocated once by [bfs_create]. *)

val bfs_create : t -> bfs

val bfs_reach : bfs -> src:int -> dst:int -> int array
(** [bfs_reach b ~src ~dst] runs a BFS from [src] over up links and
    stops as soon as [dst] is labelled (or the queue runs dry, leaving
    [dst] at [unreachable]).  When [src] is the source of the previous
    call the search resumes where it stopped, so a run of destinations
    sharing a source costs one search in all; a new source first clears
    the labels the last search wrote, at O(touched) cost.

    The returned array is the scratch's own, valid until the next call
    on [b].  Every label present is an exact hop distance, and every
    node closer to [src] than [dst] is labelled; farther nodes may read
    [unreachable].  That is all the [*_from_dist] walks below query, so
    they pick the same path from it as from [bfs_dist].  The labels
    describe the link state of the search that wrote them: call
    [bfs_reset] after failing or restoring links. *)

val bfs_reset : bfs -> unit
(** Forget the live search; the next [bfs_reach] starts afresh. *)

val hop_layers : t -> int -> int list array
(** [hop_layers t s].(d) lists node ids at distance [d] from [s],
    ascending id order; length is [max_dist + 1]. *)

val shortest_path : t -> int -> int -> int list option
(** Node ids from source to destination inclusive; deterministic
    (lowest-id parent wins). [None] if unreachable. *)

val shortest_path_ecmp : t -> int -> int -> salt:int -> int list option
(** Like [shortest_path] but hash-selects among equal-cost predecessors
    (keyed on endpoints, hop and [salt]) — the per-flow path diversity
    ECMP provides in a real Clos.  Deterministic for a given
    (src, dst, salt). *)

val shortest_path_from_dist : t -> dist:int array -> int -> int -> int list option
(** [shortest_path t src dst] given precomputed distances from [src],
    letting callers amortise the BFS over every destination sharing a
    source.  [dist] may be a [bfs_dist t src] array or a [bfs_reach]
    result for this [dst]: the back-walk only queries labels below
    [dist.(dst)], and both carry every one of those exactly.  The
    distances must describe the current link state — stale distances
    give wrong (or crashing) walks. *)

val shortest_path_ecmp_from_dist :
  t -> dist:int array -> int -> int -> salt:int -> int list option
(** [shortest_path_ecmp] given precomputed distances from [src]; same
    contract as [shortest_path_from_dist] and the same path picks as the
    BFS-per-call form. *)

val connected : t -> int list -> bool
(** Whether all listed nodes are mutually reachable over up links. *)
