(** E1 — Figure 1: bandwidth consumption of unicast Ring/Tree Broadcast
    versus the multicast optimum on the intro's two-tier leaf-spine.

    The paper's claim: logical rings and trees traverse the core links
    up to 80% more often than the optimal multicast tree. *)

type row = {
  scheme : string;
  fabric_links : int;   (** total directed fabric-link traversals *)
  core_links : int;     (** traversals touching a spine *)
  overshoot_pct : float; (** vs the optimal tree, percent *)
}

val compute : unit -> row list
(** Unit-tested: no caller outside its own tests. *)

val headline_json : unit -> Peel_util.Json.t
(** Mean, p50, p99 and max CCT of every scheme over four seeded 8-GPU,
    8 MB broadcasts on the intro fabric: the BENCH.json
    ["headline_cct"] section. *)

val run : Common.mode -> unit
