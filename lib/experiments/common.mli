(** Shared scaffolding for the experiment harness: the paper's two
    evaluation fabrics, trial-count scaling, and table helpers. *)

open Peel_topology

type mode = Quick | Full

val trials : mode -> full:int -> int
(** [full] trials in [Full] mode, a small fraction (>= 4) in [Quick]. *)

val par_trials : ('a -> 'b) -> 'a list -> 'b list
(** Order-preserving parallel map over independent experiment cells —
    [Peel_util.Pool.par_map] under the default worker count ([--jobs] /
    [PEEL_JOBS]).  Cells must be self-contained: own [Rng] seeded per
    cell, no mutation of shared state (a shared fabric is fine as long
    as no cell fails/recovers links).  Results are bit-identical to the
    sequential [List.map] for any worker count. *)

val fig5_fabric : unit -> Fabric.t
(** The paper's §4 fat-tree: 8-ary, 4 servers/ToR, 8 GPUs/server
    (1024 GPUs), 100 Gbps links, 900 GB/s NVLink. *)

val fig7_fabric : unit -> Fabric.t
(** The paper's failure fabric: 16 spines x 48 leaves, 2 servers/leaf,
    8 GPUs/server. *)

val fig1_fabric : unit -> Fabric.t
(** The intro figure's toy fabric: 2 spines, 2 leaves, 4 hosts/leaf
    (8 endpoints). *)

val mb : float -> float
(** Megabytes to bytes. *)

val banner : string -> unit
(** Print an experiment header. *)

val note : string -> unit

val summarize_run :
  ?cc:Peel_collective.Broadcast.cc ->
  ?controller:bool ->
  Fabric.t ->
  Peel_collective.Scheme.t ->
  Peel_workload.Spec.collective list ->
  Peel_util.Stats.summary
(** Run a workload and summarize CCTs. *)

val fsec : float -> string
val f2 : float -> string
(** Two-decimal float. *)

val micro_table_rows :
  (string * float option * float option) list -> string list list
(** Format micro-benchmark estimates [(algorithm, ns-per-run, r²)] as
    table rows: the time pretty-printed in seconds and the OLS r² to
    three decimals, suffixed [" low"] below 0.9 (the samples are not
    a straight line in the run count, so the estimate is noise until a
    rerun agrees); either is ["n/a"] when missing or non-finite.
    Total — every input produces a row — so a benchmark whose analysis
    fails still shows up. *)
