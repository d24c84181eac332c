(** Unicast ring schedule, the most common NCCL-style Broadcast
    baseline.

    Members are ordered for locality (GPUs of one server, then servers
    of one rack, then racks — which is ascending node-id order by
    construction) and rotated so the source leads.  A broadcast then
    flows around the ring: member [i] forwards to member [i+1]; the
    last member only receives.  Messages are pipelined in chunks by the
    collective layer, so total time approaches [(N-1+C)/C * T] where
    [T] is the per-hop message serialization time. *)

open Peel_topology

type t = {
  order : int array;        (** members, source first *)
  hops : (int * int) list;  (** (sender, receiver), N-1 entries *)
}

val schedule : Fabric.t -> source:int -> members:int list -> t
(** [members] must include the source. Raises [Invalid_argument]
    otherwise or on groups smaller than 2. *)

