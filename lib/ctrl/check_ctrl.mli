(** Control-plane invariant lints (CTRL codes), in the style of
    {!Peel_check}: pure functions returning
    {!Peel_check.Diagnostic.t} lists, asserted in debug mode
    ([PEEL_CHECK=1]) by {!Refine.run} and surfaced by
    [peel_cli refine].

    - [CTRL001] — a group's exact entries (and its refined tree)
      reach {e exactly} the member racks: no over-cover left, no
      member missed.
    - [CTRL002] — no switch ever held more entries than the TCAM
      budget (checked against the live tables and the high-water
      mark).
    - [CTRL003] — the mid-run stage switch conserves chunks: static
      + refined releases equal the chunk count, and deliveries equal
      [chunks x destinations].
    - [CTRL004] — two runs with the same seed and group schedule
      produce byte-identical behavioural digests.
    - [CTRL005] — trace ordering: a [Refine] is preceded by the
      group's [Rule_install]s, an [Evict] by an install. *)

open Peel_topology

val check_refined_cover :
  Fabric.t ->
  group:int ->
  members:int list ->
  tree:Peel_steiner.Tree.t option ->
  Peel_check.Diagnostic.t list
(** CTRL001: {!Peel.Dataplane.verify_exact} on the group's entries,
    plus (when [tree] is given) that the refined tree's ToRs are
    exactly the member racks. *)

val check_budget : ?code:string -> Tcam.t -> Peel_check.Diagnostic.t list
(** CTRL002, or the same walk under [code] (SVC002 passes its own). *)

type handoff = {
  h_gid : int;
  h_ndests : int;
  h_chunks : int;
  h_static : int;      (** chunks released on static prefix rules *)
  h_refined : int;     (** chunks released on the exact tree *)
  h_deliveries : int;
}

val check_handoff : handoff list -> Peel_check.Diagnostic.t list
(** CTRL003. *)

val fingerprint :
  Peel_collective.Runner.outcome ->
  handoffs:handoff list ->
  controller:Controller.t ->
  string
(** A behavioural digest (CCTs, wire totals, control-plane activity,
    per-group handoff counts) for replay comparison. *)

val check_replay : first:string -> second:string -> Peel_check.Diagnostic.t list
(** CTRL004: the two digests must be byte-identical. *)

val check_trace : Peel_sim.Trace.t -> Peel_check.Diagnostic.t list
(** CTRL005 (needs a [Full]-level trace to see anything). *)
