open Peel_topology
open Peel_workload
open Peel_collective
module Rng = Peel_util.Rng
module Json = Peel_util.Json

type row = {
  scheme : string;
  fail_at : float;  (** failure instant, fraction of the clean CCT *)
  reaction : float;  (** controller reaction delay, seconds *)
  clean : float;  (** failure-free CCT, seconds *)
  failed : float;  (** CCT with the mid-run failure, seconds *)
  degradation : float;  (** failed / clean *)
  replans : int;  (** controller replans traced during the run *)
}

let fabric () =
  Fabric.leaf_spine ~spines:4 ~leaves:8 ~hosts_per_leaf:2 ~gpus_per_host:2 ()

let spec_for fabric = Spec.single fabric (Rng.create 1600) ~scale:16 ~bytes:(Common.mb 8.0)

(* One seeded failure draw shared by every (scheme, fail_at, reaction)
   combination: draw the duplex ids with connectivity ensured, then put
   them back up — only the schedule takes them down, mid-run. *)
let failure_draw fabric =
  let ids =
    Fabric.fail_random fabric ~rng:(Rng.create 2026) ~tier:`All ~fraction:0.25
      ()
  in
  List.iter (Fabric.recover_link fabric) ids;
  ids

let sweep mode =
  match mode with
  | Common.Quick -> ([ 0.2; 0.6 ], [ 1e-3 ])
  | Common.Full -> ([ 0.1; 0.3; 0.5; 0.7; 0.9 ], [ 0.5e-3; 2e-3; 8e-3 ])

let rows mode =
  let fail_ats, reactions = sweep mode in
  (* Failover cells inject faults (they flip link state on their
     fabric), so the fan-out is per scheme and every cell rebuilds its
     own fabric; placement and failure draws are re-derived from the
     same fixed seeds, so each cell sees the sequential sweep's exact
     spec and link ids.  The inner fail_at x reaction grid stays
     sequential within a cell — it reuses the cell's fabric. *)
  List.concat
    (Common.par_trials
       (fun scheme ->
         let fabric = fabric () in
         let spec = spec_for fabric in
         let ids = failure_draw fabric in
         let clean =
           List.hd (Failover.run fabric scheme [ spec ]).Runner.ccts
         in
      List.concat_map
        (fun fail_at ->
          List.map
            (fun reaction ->
              let faults =
                Peel_sim.Fault.schedule_of_failures ~at:(fail_at *. clean) ids
              in
              let ctrl = { Failover.default_ctrl with reaction } in
              let trace = Peel_sim.Trace.create ~level:Counters () in
              let out =
                Failover.run ~ctrl ~trace ~faults fabric scheme [ spec ]
              in
              (* The schedule leaves its links down past the run's end;
                 restore the shared fabric for the next combination. *)
              List.iter (Fabric.recover_link fabric) ids;
              let failed = List.hd out.Runner.ccts in
              let c = Peel_sim.Trace.counters trace in
              {
                scheme = Failover.scheme_to_string scheme;
                fail_at;
                reaction;
                clean;
                failed;
                degradation = failed /. clean;
                replans = c.Peel_sim.Trace.replans;
              })
            reactions)
        fail_ats)
       Failover.all_schemes)

let rows_json mode =
  Json.Arr
    (List.map
       (fun r ->
         Json.Obj
           [
             ("scheme", Json.str r.scheme);
             ("fail_at", Json.num r.fail_at);
             ("reaction_s", Json.num r.reaction);
             ("clean_cct_s", Json.num r.clean);
             ("failed_cct_s", Json.num r.failed);
             ("degradation", Json.num r.degradation);
             ("replans", Json.int r.replans);
           ])
       (rows mode))

let run mode =
  Common.note
    "32-GPU leaf-spine, 16-member 8 MB broadcast; 25% of fabric links fail \
     mid-run (seeded draw); detection 500 us";
  let rs = rows mode in
  Peel_util.Table.print
    ~header:
      [ "scheme"; "fail@ (xCCT)"; "reaction"; "clean CCT"; "failed CCT";
        "degradation"; "replans" ]
    (List.map
       (fun r ->
         [
           r.scheme;
           Common.f2 r.fail_at;
           Common.fsec r.reaction;
           Common.fsec r.clean;
           Common.fsec r.failed;
           Common.f2 r.degradation ^ "x";
           string_of_int r.replans;
         ])
       rs);
  Common.note
    "PEEL re-peels around the cut (replans > 0); ring and tree fall back to \
     per-receiver unicast repairs from the source"
