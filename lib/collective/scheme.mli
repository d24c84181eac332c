(** Broadcast schemes: the six the paper's evaluation compares, plus two
    extensions this reproduction adds (NCCL's double binary tree, and
    multi-tree PEEL striping for the §2.3 multicast-vs-multipath open
    question). *)

type t =
  | Ring            (** unicast ring, pipelined chunks *)
  | Btree           (** unicast binary tree, pipelined chunks *)
  | Dbtree          (** NCCL double binary tree (extension) *)
  | Optimal         (** bandwidth-optimal Steiner-tree multicast *)
  | Orca            (** controller-installed multicast + host relays *)
  | Peel            (** static prefix packets, zero setup latency *)
  | Peel_prog_cores (** PEEL fast start, controller refines at the core *)
  | Peel_multitree of int
      (** PEEL striping chunks across N edge-diverse trees (extension) *)

val all : t list
(** The paper's six. *)

val to_string : t -> string
val of_string : string -> t option

