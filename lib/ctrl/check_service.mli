(** Service-mode invariant lints (SVC codes), in the style of
    {!Peel_check}: pure functions over a quiescent {!Service.outcome},
    asserted in debug mode ([PEEL_CHECK=1]) by [peel_cli serve] and
    the [@serve-smoke] battery.

    - [SVC001] — every live group's exact entries and current tree
      reach {e exactly} the member racks, through every membership
      delta the group absorbed (the delta-repeel soundness lint).
    - [SVC002] — no switch ever held more entries than the TCAM
      budget (live tables and the high-water mark).
    - [SVC003] — stage honesty: an evicted/denied ([Fallback]) group
      holds no entry anywhere; an [Installed] group holds a complete
      entry set (one per tree switch).
    - [SVC004] — no rule for a departed group survives, at any switch
      or in the install backlog, and a departed gid resolves to no
      live {!Group_table} slot.
    - [SVC005] — two runs with the same seed and event stream produce
      byte-identical decision-log fingerprints. *)

val check_state : Service.outcome -> Peel_check.Diagnostic.t list
(** SVC001–004 over the whole outcome, sorted errors-first. *)

val check_replay :
  first:string -> second:string -> Peel_check.Diagnostic.t list
(** SVC005: the two fingerprints must be byte-identical. *)
