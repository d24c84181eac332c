(** The experiment registry: one entry per reproduced figure, table or
    extension, E1–E22, in id order.  The bench harness's runner,
    [BENCH.json] writer and drift guard, and [peel_cli experiment], all
    iterate {!all}; a new experiment or [BENCH.json] section is one
    entry here. *)

type section = {
  key : string;  (** the top-level [BENCH.json] key *)
  guarded : bool;
      (** [bench guard] recomputes the section and fails on any drift
          from the committed [BENCH.json].  Only seeded, jobs-invariant
          sections are guarded; wall-clock ones are recorded, not
          compared. *)
  json : unit -> Peel_util.Json.t;
      (** Computed at [Quick] whatever the run's mode, so every bench
          invocation writes the same deterministic record. *)
}

type entry = {
  id : string;  (** ["E1"] … ["E22"] *)
  name : string;  (** the word [bench] and [peel_cli experiment] take *)
  title : string;  (** the banner [run] prints first *)
  run : Common.mode -> unit;
      (** Print the banner, then the experiment's tables. *)
  sections : section list;  (** the [BENCH.json] sections it owns *)
}

val all : entry list
