(** Behavioural model of Orca (NSDI'22), the paper's state-of-the-art
    controller-based comparator (§3.1, §4).

    Orca installs multicast rules on demand through a centralized SDN
    controller and shrinks switch fan-out state by delegating the last
    hop to a host-side agent: the fabric tree delivers one copy per
    involved server to an agent endpoint, which then relays the message
    to the server's remaining member GPUs over NVLink.

    Two behaviours matter for the evaluation and are modelled here:
    - flow-setup latency: every collective waits for the controller,
      sampled from N(10 ms, 5 ms) truncated at 0 (He et al., per the
      paper's setup);
    - agent relays: extra unicasts that re-cross the ToR for every
      member beyond the agent, costing rack-local bandwidth. *)

open Peel_topology
open Peel_steiner

type plan = {
  setup_delay : float;        (** seconds before the first byte moves *)
  tree : Tree.t;              (** fabric tree to one agent per server *)
  relays : (int * int) list;  (** (agent, member) intra-server relays *)
}

val sample_setup_delay : Peel_util.Rng.t -> float

val plan :
  Fabric.t -> rng:Peel_util.Rng.t -> source:int -> dests:int list -> plan
(** Build the delivery plan for one Broadcast.  The agent for each
    server is its lowest-id destination endpoint.  The fabric tree uses
    the symmetric-optimal construction, falling back to the
    layer-peeling greedy when links are down. *)
