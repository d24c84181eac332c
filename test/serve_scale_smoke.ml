(* Serve-scale smoke (the @serve-scale-smoke alias): the million-group
   service fast path exercised at a quick 10^5-live-group cell.

   Default mode drives the E22 stream parameters for 120k events —
   enough for the long-hold tenants to ramp past 10^5 concurrent
   groups — three times: with the gc_space_overhead knob set (it must
   be fingerprint-neutral), a same-seed replay at the default GC, and
   a run with the peel/plan memo caches disabled.  All three replay
   fingerprints must be byte-identical (SVC005 + cache neutrality),
   the memo must actually fire, and the SVC001-004 state lint must
   come back clean over all 10^5 live groups.  Exits 1 on any
   divergence or finding.

   [corrupt] mode seeds one member-set corruption through the
   {!Group_table.set_members} test hook and exits 1 when the SVC001
   cover lint diagnoses it — the alias wraps this cell in
   [with-accepted-exit-codes 1], so a corruption slipping through
   uncaught (exit 0) fails the build. *)

open Peel_topology
open Peel_workload
open Peel_ctrl
module Rng = Peel_util.Rng
module D = Peel_check.Diagnostic

let fabric () = Fabric.leaf_spine ~spines:4 ~leaves:8 ~hosts_per_leaf:4 ()

let tenants () =
  [
    Stream.tenant ~rate:4000.0 ~scale:3 ~bytes:1e6 ~hold:1e6 ~churn:5e-4
      ~sends:5e-4 ();
    Stream.tenant ~rate:100.0 ~scale:8 ~bytes:4e6 ~hold:1e6 ~churn:5e-4
      ~sends:1e-3 ~fragmentation:0.25 ();
  ]

let serve ?(use_cache = true) ?gc events =
  let fabric = fabric () in
  let stream = Stream.create fabric (Rng.create 4200) ~tenants:(tenants ()) () in
  let cfg =
    {
      Service.default_config with
      Service.capacity = 1024;
      use_cache;
      gc_space_overhead = gc;
    }
  in
  Service.run ~cfg fabric ~events stream

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("serve-scale-smoke: " ^ s);
      exit 1)
    fmt

let expect_clean what ds =
  if ds <> [] then begin
    Format.eprintf "serve-scale-smoke: %s:@.%a@." what D.pp_report ds;
    exit 1
  end

let scale_cell () =
  let events = 120_000 in
  let out = serve ~gc:256 events in
  let replay = serve events in
  let outnc = serve ~use_cache:false events in
  let s = out.Service.o_slo in
  if s.Service.groups_live < 100_000 then
    die "only %d live groups; the cell is supposed to hold >= 10^5"
      s.Service.groups_live;
  if s.Service.cache_hits = 0 then die "the peel/plan memo never fired";
  if outnc.Service.o_slo.Service.cache_hits <> 0 then
    die "cache-off run reported %d cache hits"
      outnc.Service.o_slo.Service.cache_hits;
  expect_clean "same-seed replay diverged (SVC005)"
    (Check_service.check_replay ~first:out.Service.o_fingerprint
       ~second:replay.Service.o_fingerprint);
  expect_clean "cache-on vs cache-off replay diverged"
    (Check_service.check_replay ~first:out.Service.o_fingerprint
       ~second:outnc.Service.o_fingerprint);
  expect_clean "state lint findings at scale" (Check_service.check_state out);
  Printf.printf
    "serve-scale-smoke: ok (%d events, %d live groups, %d hits / %d misses, \
     fingerprint %s on the same-seed replay and cache on/off)\n"
    events s.Service.groups_live s.Service.cache_hits s.Service.cache_misses
    out.Service.o_fingerprint

(* Small cell: plenty of Installed groups, instant lint. *)
let corrupt_cell () =
  let out = serve 2_000 in
  let fabric = out.Service.o_fabric in
  let groups = out.Service.o_groups in
  let racks_of slot =
    List.sort_uniq compare
      (List.map (Fabric.attach_tor fabric) (Group_table.member_list groups slot))
  in
  let slot =
    match
      Group_table.fold
        (fun acc slot ->
          match acc with
          | Some _ -> acc
          | None ->
              (* Needs members spanning more than one rack: the aligned
                 tenant's single-rack groups keep the same member racks
                 when shrunk to the source, which is no corruption at
                 all. *)
              if
                Group_table.stage groups slot = Service.Installed
                && List.length (racks_of slot) > 1
              then Some slot
              else None)
        groups None
    with
    | Some slot -> slot
    | None -> die "no multi-rack installed group to corrupt"
  in
  (* Claim the group only ever had its source: the installed tree now
     reaches racks that house no member, which SVC001 must flag. *)
  Group_table.set_members groups slot [ Group_table.source groups slot ];
  let ds = Check_service.check_state out in
  if D.has_code "SVC001" ds then begin
    Format.eprintf
      "serve-scale-smoke: seeded corruption diagnosed as intended:@.%a@."
      D.pp_report ds;
    exit 1
  end
  else begin
    prerr_endline
      "serve-scale-smoke: seeded member-set corruption was NOT diagnosed";
    exit 0 (* the alias accepts only exit 1 here, so 0 fails the build *)
  end

let () =
  match if Array.length Sys.argv > 1 then Sys.argv.(1) else "scale" with
  | "scale" -> scale_cell ()
  | "corrupt" -> corrupt_cell ()
  | mode ->
      prerr_endline ("serve-scale-smoke: unknown mode " ^ mode);
      exit 2
