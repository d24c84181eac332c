(* peel-cli: command-line front end for the PEEL library.

   Subcommands:
     plan       — compute a multicast tree + prefix send plan for a group
     compile    — lower a batch of group plans to per-switch rule tables
     simulate   — run Broadcast workloads through the simulator
     trace      — run one workload with tracing on; export JSON/CSV
     failover   — inject a scheduled mid-run link failure and re-peel
     refine     — two-stage refinement control plane under group churn
     serve      — open-loop multicast-as-a-service controller (SVC lints)
     zoo        — generate a zoo topology, plan with the generalized
                  peeler, compare against the exact-Steiner oracle
     state      — switch-state and header accounting for a fat-tree degree
     experiment — regenerate a paper table/figure by name

   Every subcommand uses the same exit-code convention:
     0 — success, no error-severity diagnostics
     1 — the run completed but a checker diagnosed errors
     2 — command-line usage error                                        *)

open Cmdliner
open Peel_topology
open Peel_workload
open Peel_collective
module Rng = Peel_util.Rng

(* ------------------------------------------------------------------ *)
(* Shared arguments                                                    *)
(* ------------------------------------------------------------------ *)

let fabric_term =
  let kind =
    Arg.(
      value
      & opt
          (enum
             [ ("fat-tree", `Fat_tree); ("leaf-spine", `Leaf_spine);
               ("rail", `Rail) ])
          `Fat_tree
      & info [ "fabric" ] ~docv:"KIND"
          ~doc:"Fabric kind: fat-tree, leaf-spine or rail.")
  in
  let k =
    Arg.(value & opt int 8 & info [ "k" ] ~docv:"K" ~doc:"Fat-tree arity (even).")
  in
  let spines =
    Arg.(value & opt int 16 & info [ "spines" ] ~doc:"Leaf-spine: spine count.")
  in
  let leaves =
    Arg.(value & opt int 48 & info [ "leaves" ] ~doc:"Leaf-spine: leaf count.")
  in
  let hosts =
    Arg.(
      value & opt int 4
      & info [ "hosts" ] ~doc:"Servers per rack (fat-tree ToR or leaf).")
  in
  let gpus =
    Arg.(value & opt int 8 & info [ "gpus" ] ~doc:"GPUs per server (0 = none).")
  in
  let make kind k spines leaves hosts gpus =
    match kind with
    | `Fat_tree -> Fabric.fat_tree ~k ~hosts_per_tor:hosts ~gpus_per_host:gpus ()
    | `Leaf_spine ->
        Fabric.leaf_spine ~spines ~leaves ~hosts_per_leaf:hosts
          ~gpus_per_host:gpus ()
    | `Rail ->
        Fabric.rail ~rails:(max 1 gpus) ~groups:(max 1 (leaves / 6))
          ~servers_per_group:hosts ~spines ()
  in
  Term.(const make $ kind $ k $ spines $ leaves $ hosts $ gpus)

let seed_term =
  Arg.(value & opt int 42 & info [ "seed" ] ~doc:"PRNG seed (reproducible).")

let jobs_term =
  Arg.(
    value
    & opt (some int) None
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Worker domains for parallel sweeps (default: $(b,PEEL_JOBS) or \
           the hardware count).  Results are bit-identical for any value.")

let apply_jobs jobs = Option.iter Peel_util.Pool.set_default_jobs jobs

let scale_term =
  Arg.(value & opt int 64 & info [ "scale" ] ~doc:"Collective size in GPUs.")

let quiet_term =
  Arg.(value & flag & info [ "quiet" ] ~doc:"Only print the verdict line.")

(* A flag value parsed by a library's [of_string]; [what] names it in
   the usage error. *)
let conv_of ~what of_string to_string =
  let parse s =
    match of_string s with
    | Some x -> Ok x
    | None -> Error (`Msg (Printf.sprintf "unknown %s %S" what s))
  in
  Arg.conv (parse, fun fmt x -> Format.pp_print_string fmt (to_string x))

let policy_term =
  let open Peel_ctrl in
  Arg.(
    value
    & opt (conv_of ~what:"eviction policy" Tcam.policy_of_string Tcam.policy_to_string)
        Tcam.Lru
    & info [ "policy" ] ~docv:"POLICY" ~doc:"Eviction policy: lru or bytes.")

module D = Peel_check.Diagnostic
module Json = Peel_util.Json

let finding_json d =
  Json.Obj
    [
      ("severity", Json.str (D.severity_to_string d.D.severity));
      ("code", Json.str d.D.code);
      ("location", Json.str d.D.location);
      ("message", Json.str d.D.message);
    ]

(* The tail of every linting subcommand: [json] when given, else the
   findings (unless [quiet]) and one verdict line, [head] then the
   finding and error counts then [tail]; exit 1 on any error. *)
let report ?json ?(tail = "") ~quiet ds head =
  (match json with
  | Some doc -> print_endline (Json.to_string doc)
  | None ->
      if ds <> [] && not quiet then Format.printf "%a" D.pp_report ds;
      Printf.printf "%s%d finding(s), %d error(s)%s\n" head (List.length ds)
        (List.length (D.errors ds)) tail);
  if D.has_errors ds then exit 1

(* The uniform exit-code contract, documented in every subcommand's man
   page and asserted by test_compile's CLI test. *)
let std_exits =
  [
    Cmd.Exit.info 0 ~doc:"on success (no error-severity diagnostics).";
    Cmd.Exit.info 1
      ~doc:"when the run completed but a checker diagnosed errors.";
    Cmd.Exit.info 2 ~doc:"on command-line usage errors.";
  ]

(* ------------------------------------------------------------------ *)
(* plan                                                                *)
(* ------------------------------------------------------------------ *)

let plan_cmd =
  let failures =
    Arg.(
      value & opt float 0.0
      & info [ "failures" ] ~doc:"Fraction of fabric links to fail first.")
  in
  let run fabric seed scale failures =
    let rng = Rng.create seed in
    if failures <> 0.0 then begin
      let failed =
        Fabric.fail_random fabric ~rng ~tier:`All ~fraction:failures ()
      in
      Printf.printf "failed %d cables\n" (List.length failed)
    end;
    let members = Spec.place fabric rng ~scale () in
    let source = List.hd members in
    let dests = List.filter (fun m -> m <> source) members in
    Printf.printf "fabric: %s\ngroup: %d GPUs, source node %d\n"
      (Fabric.describe fabric) scale source;
    (match Peel.multicast_tree fabric ~source ~dests with
    | None -> print_endline "destinations unreachable!"
    | Some tree ->
        Printf.printf "tree: %d links, depth %d\n" (Peel.Tree.cost tree)
          (Peel.Tree.max_depth tree));
    let plan = Peel.plan fabric ~source ~dests in
    Printf.printf "plan: %d packet(s), header %d B, %d rule(s) per switch (static)\n"
      (Peel.Plan.num_packets plan) plan.Peel.Plan.header_bytes
      (Peel.switch_rules fabric);
    List.iter
      (fun p ->
        Printf.printf "  packet: %d pod(s), %d rack(s), %d endpoint(s)%s\n"
          (List.length p.Peel.Plan.pods)
          (List.length p.Peel.Plan.tors)
          (List.length p.Peel.Plan.endpoints)
          (match p.Peel.Plan.waste_tors with
          | [] -> ""
          | w -> Printf.sprintf ", %d rack(s) over-covered" (List.length w)))
      plan.Peel.Plan.packets
  in
  Cmd.v (Cmd.info "plan" ~exits:std_exits ~doc:"Compute a multicast tree and prefix send plan.")
    Term.(const run $ fabric_term $ seed_term $ scale_term $ failures)

(* ------------------------------------------------------------------ *)
(* check                                                               *)
(* ------------------------------------------------------------------ *)

let check_cmd =
  let failures =
    Arg.(
      value & opt float 0.0
      & info [ "failures" ] ~doc:"Fraction of fabric links to fail first.")
  in
  let budget =
    Arg.(
      value & opt (some int) None
      & info [ "budget" ]
          ~doc:"Cap on ToR prefixes per packet group (allows over-covering).")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Print the diagnostics as a machine-readable JSON document on \
             stdout instead of the human report (exit code unchanged).")
  in
  let run fabric seed scale failures budget quiet json =
    let rng = Rng.create seed in
    if failures <> 0.0 then
      ignore (Fabric.fail_random fabric ~rng ~tier:`All ~fraction:failures ());
    let members = Spec.place fabric rng ~scale () in
    let source = List.hd members in
    let dests = List.filter (fun m -> m <> source) members in
    let ds = Peel_check.check_scenario ?budget fabric ~source ~dests in
    let doc () =
      Json.Obj
        [
          ("schema", Json.str "peel-check/1");
          ( "meta",
            Json.Obj
              [
                ("fabric", Json.str (Fabric.describe fabric));
                ("seed", Json.int seed);
                ("scale", Json.int scale);
                ("failures", Json.num failures);
                ( "budget",
                  match budget with
                  | None -> Json.Null
                  | Some b -> Json.int b );
              ] );
          ("findings", Json.Arr (List.map finding_json (D.sort ds)));
          ("errors", Json.int (List.length (D.errors ds)));
        ]
    in
    report
      ?json:(if json then Some (doc ()) else None)
      ~quiet ds
      (Printf.sprintf "%s: %d-GPU group%s: " (Fabric.describe fabric) scale
         (if failures > 0.0 then
            Printf.sprintf " (%.0f%% links failed)" (failures *. 100.0)
          else ""))
  in
  Cmd.v
    (Cmd.info "check" ~exits:std_exits
       ~doc:
         "Statically lint a scenario's invariants (tree, plan, rules, \
          schedules); exit non-zero on errors.")
    Term.(
      const run $ fabric_term $ seed_term $ scale_term $ failures $ budget
      $ quiet_term $ json)

(* ------------------------------------------------------------------ *)
(* simulate                                                            *)
(* ------------------------------------------------------------------ *)

(* Every name [Scheme.of_string] accepts, for the man pages. *)
let scheme_names =
  "ring, tree, dbtree, optimal, orca, peel, peel+cores or peel-mtN (N salted \
   greedy trees, chunks striped across them)"

let scheme_conv = conv_of ~what:"scheme" Scheme.of_string Scheme.to_string

let simulate_cmd =
  let scheme =
    Arg.(
      value
      & opt (list scheme_conv) Scheme.all
      & info [ "schemes" ] ~docv:"S1,S2" ~doc:("Schemes: " ^ scheme_names ^ "."))
  in
  let size_mb =
    Arg.(value & opt float 64.0 & info [ "size" ] ~doc:"Message size in MB.")
  in
  let load =
    Arg.(value & opt float 0.3 & info [ "load" ] ~doc:"Offered load (0,1].")
  in
  let n =
    Arg.(value & opt int 40 & info [ "n" ] ~doc:"Number of collectives.")
  in
  let par_sim =
    Arg.(
      value & flag
      & info [ "par-sim" ]
          ~doc:
            "Run each scheme on the conservative sharded engine (event loop \
             partitioned by pod, $(b,--jobs) worker domains) instead of the \
             sequential engine.  Schemes the sharded engine cannot express \
             (orca, peel+cores, multitree) fall back to the sequential path, \
             marked in the table.")
  in
  let par_verify =
    Arg.(
      value & flag
      & info [ "par-verify" ]
          ~doc:
            "With the sharded engine (implies $(b,--par-sim)): run every \
             supported scheme at jobs=1 and jobs=N, require bit-identical \
             CCTs, makespan, delivery fingerprint and per-link busy time, \
             and lint the window audit for shard-boundary causality \
             (SIM008).  Exits 1 on any divergence or finding.")
  in
  let run fabric seed scale schemes size_mb load n jobs par_sim par_verify =
    apply_jobs jobs;
    let par_sim = par_sim || par_verify in
    Printf.printf "fabric: %s; %d collectives of %d GPUs x %.0f MB at %.0f%% load%s\n\n"
      (Fabric.describe fabric) n scale size_mb (load *. 100.0)
      (if par_sim then
         Printf.sprintf " (sharded engine, %d jobs)" (Peel_util.Pool.default_jobs ())
       else "");
    let specs () =
      Spec.poisson_broadcasts fabric (Rng.create seed) ~n ~scale
        ~bytes:(size_mb *. 1e6) ~load ()
    in
    let verify_failed = ref false in
    if par_verify then
      List.iter
        (fun scheme ->
          if Par.supported scheme then begin
            let cs = specs () in
            let r1 = Par.run ~jobs:1 ~audit:true fabric scheme cs in
            let rn = Par.run ~audit:true fabric scheme cs in
            let module S = Peel_sim.Shard in
            let same =
              Array.for_all2 Float.equal r1.S.r_ccts rn.S.r_ccts
              && r1.S.r_fingerprint = rn.S.r_fingerprint
              && Float.equal r1.S.r_makespan rn.S.r_makespan
              && Array.for_all2 Float.equal r1.S.r_busy rn.S.r_busy
            in
            let ds =
              Peel_check.Check_sim.check_shard r1
              @ Peel_check.Check_sim.check_shard rn
            in
            if (not same) || D.has_errors ds then begin
              verify_failed := true;
              Printf.printf "par-verify %s: FAILED%s\n" (Scheme.to_string scheme)
                (if same then "" else " (jobs-1 vs jobs-N diverged)");
              Format.printf "%a" D.pp_report ds
            end
            else
              Printf.printf "par-verify %s: ok (%d windows, %d events)\n"
                (Scheme.to_string scheme) rn.S.r_windows rn.S.r_events
          end)
        schemes;
    if par_verify then print_newline ();
    let row scheme =
      let cs = specs () in
      let name = Scheme.to_string scheme in
      let name, outcome =
        if par_sim && Par.supported scheme then (name, Runner.run_sharded fabric scheme cs)
        else if par_sim then (name ^ " (seq)", Runner.run fabric scheme cs)
        else (name, Runner.run fabric scheme cs)
      in
      let s = Runner.summarize outcome in
      [
        name;
        Peel_util.Table.fsec s.Peel_util.Stats.mean;
        Peel_util.Table.fsec s.Peel_util.Stats.p50;
        Peel_util.Table.fsec s.Peel_util.Stats.p99;
        Peel_util.Table.fsec s.Peel_util.Stats.max;
      ]
    in
    (* Sequential engine: one worker cell per scheme (each regenerates
       the workload from the seed and shares the fabric read-only).
       Sharded engine: schemes run serially — the domains live inside
       each run. *)
    let rows =
      if par_sim then List.map row schemes else Peel_util.Pool.par_map row schemes
    in
    Peel_util.Table.print ~header:[ "scheme"; "mean"; "p50"; "p99"; "max" ] rows;
    if !verify_failed then exit 1
  in
  Cmd.v (Cmd.info "simulate" ~exits:std_exits ~doc:"Simulate Broadcast workloads.")
    Term.(
      const run $ fabric_term $ seed_term $ scale_term $ scheme $ size_mb $ load
      $ n $ jobs_term $ par_sim $ par_verify)

(* ------------------------------------------------------------------ *)
(* trace                                                               *)
(* ------------------------------------------------------------------ *)

let trace_cmd =
  let module Trace = Peel_sim.Trace in
  let scheme =
    Arg.(
      value
      & opt scheme_conv Scheme.Peel
      & info [ "scheme" ] ~docv:"SCHEME" ~doc:("Scheme to trace: " ^ scheme_names ^ "."))
  in
  let size_mb =
    Arg.(value & opt float 64.0 & info [ "size" ] ~doc:"Message size in MB.")
  in
  let load =
    Arg.(value & opt float 0.3 & info [ "load" ] ~doc:"Offered load (0,1].")
  in
  let n =
    Arg.(value & opt int 8 & info [ "n" ] ~doc:"Number of collectives.")
  in
  let chunks =
    Arg.(value & opt int 8 & info [ "chunks" ] ~doc:"Pipelined chunks per message.")
  in
  let level =
    Arg.(
      value
      & opt (enum [ ("counters", Trace.Counters); ("full", Trace.Full) ]) Trace.Full
      & info [ "level" ] ~docv:"LEVEL"
          ~doc:"Trace verbosity: counters (aggregates only) or full (event log).")
  in
  let sample =
    Arg.(
      value & opt int 1
      & info [ "sample" ] ~docv:"N"
          ~doc:"Record every Nth link reservation event (counters stay exact).")
  in
  let out =
    Arg.(
      value & opt string "trace.json"
      & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Trace JSON output path.")
  in
  let csv =
    Arg.(
      value & opt (some string) None
      & info [ "csv" ] ~docv:"FILE" ~doc:"Also export the event log as CSV.")
  in
  let level_name = function
    | Trace.Off -> "off" | Trace.Counters -> "counters" | Trace.Full -> "full"
  in
  let flow_json (f : Trace.flow_stats) =
    Json.Obj
      [
        ("flow", Json.int f.Trace.f_flow);
        ("releases", Json.int f.Trace.f_releases);
        ("deliveries", Json.int f.Trace.f_deliveries);
        ("cnps", Json.int f.Trace.f_cnps);
        ("rate_cuts", Json.int f.Trace.f_rate_cuts);
        ("guard_holds", Json.int f.Trace.f_guard_holds);
        ("retransmits", Json.int f.Trace.f_retransmits);
        ("replans", Json.int f.Trace.f_replans);
        ("first_delivery", Json.num f.Trace.f_first_delivery);
        ("last_delivery", Json.num f.Trace.f_last_delivery);
        ("mean_chunk_latency", Json.num f.Trace.f_mean_chunk_latency);
        ("max_chunk_latency", Json.num f.Trace.f_max_chunk_latency);
      ]
  in
  let run fabric seed scale scheme size_mb load n chunks level sample out csv
      quiet =
    let trace = Trace.create ~level ~sample () in
    let cs =
      Spec.poisson_broadcasts fabric (Rng.create seed) ~n ~scale
        ~bytes:(size_mb *. 1e6) ~load ()
    in
    let outcome = Runner.run ~chunks ~trace fabric scheme cs in
    let expected_deliveries =
      chunks
      * List.fold_left
          (fun acc (c : Spec.collective) -> acc + List.length c.Spec.dests)
          0 cs
    in
    let ds =
      Peel_check.Check_sim.check_outcome ~expected:n ~ccts:outcome.Runner.ccts
        ~makespan:outcome.Runner.makespan outcome.Runner.telemetry
      @ Peel_check.Check_sim.check_trace ~expected_deliveries trace
    in
    let s = Runner.summarize outcome in
    let c = Trace.counters trace in
    let flows = Trace.flow_stats trace in
    if not quiet then begin
      Printf.printf "fabric: %s; scheme %s; %d collectives of %d GPUs x %.0f MB\n"
        (Fabric.describe fabric) (Scheme.to_string scheme) n scale size_mb;
      Printf.printf
        "makespan %s; mean CCT %s, p99 %s; %d engine events (max queue %d)\n\n"
        (Peel_util.Table.fsec outcome.Runner.makespan)
        (Peel_util.Table.fsec s.Peel_util.Stats.mean)
        (Peel_util.Table.fsec s.Peel_util.Stats.p99)
        c.Trace.engine_events c.Trace.engine_max_pending;
      Peel_util.Table.print ~header:[ "counter"; "value" ]
        [
          [ "link reservations"; string_of_int c.Trace.reservations ];
          [ "bytes reserved"; Printf.sprintf "%.3e" c.Trace.bytes_reserved ];
          [ "chunk releases"; string_of_int c.Trace.releases ];
          [ "chunk deliveries"; string_of_int c.Trace.deliveries ];
          [ "ECN marks"; string_of_int c.Trace.ecn_marks ];
          [ "CNPs"; string_of_int c.Trace.cnps ];
          [ "rate cuts"; string_of_int c.Trace.rate_cuts ];
          [ "guard holds"; string_of_int c.Trace.guard_holds ];
          [ "drops"; string_of_int c.Trace.drops ];
          [ "retransmits"; string_of_int c.Trace.retransmits ];
        ];
      print_newline ();
      let hot = Peel_sim.Telemetry.hottest outcome.Runner.telemetry ~n:5 in
      Peel_util.Table.print
        ~header:[ "hot link"; "tier"; "util"; "chunks"; "ECN"; "max backlog" ]
        (List.map
           (fun (r : Peel_sim.Telemetry.link_report) ->
             [
               Printf.sprintf "%d->%d" r.Peel_sim.Telemetry.src
                 r.Peel_sim.Telemetry.dst;
               r.Peel_sim.Telemetry.tier;
               Printf.sprintf "%.2f" r.Peel_sim.Telemetry.utilization;
               string_of_int r.Peel_sim.Telemetry.reservations;
               string_of_int r.Peel_sim.Telemetry.ecn_marks;
               Peel_util.Table.fsec r.Peel_sim.Telemetry.max_backlog;
             ])
           hot);
      if flows <> [] then begin
        print_newline ();
        Peel_util.Table.print
          ~header:[ "flow"; "released"; "delivered"; "mean lat"; "max lat" ]
          (List.map
             (fun (f : Trace.flow_stats) ->
               [
                 string_of_int f.Trace.f_flow;
                 string_of_int f.Trace.f_releases;
                 string_of_int f.Trace.f_deliveries;
                 Peel_util.Table.fsec f.Trace.f_mean_chunk_latency;
                 Peel_util.Table.fsec f.Trace.f_max_chunk_latency;
               ])
             flows)
      end;
      print_newline ()
    end;
    let doc =
      Json.Obj
        [
          ("schema", Json.str "peel-trace/1");
          ( "meta",
            Json.Obj
              [
                ("fabric", Json.str (Fabric.describe fabric));
                ("scheme", Json.str (Scheme.to_string scheme));
                ("seed", Json.int seed);
                ("scale", Json.int scale);
                ("collectives", Json.int n);
                ("bytes", Json.num (size_mb *. 1e6));
                ("load", Json.num load);
                ("chunks", Json.int chunks);
                ("level", Json.str (level_name level));
                ("sample", Json.int sample);
              ] );
          ( "summary",
            Json.Obj
              [
                ("makespan", Json.num outcome.Runner.makespan);
                ("mean_cct", Json.num s.Peel_util.Stats.mean);
                ("p50_cct", Json.num s.Peel_util.Stats.p50);
                ("p99_cct", Json.num s.Peel_util.Stats.p99);
                ("max_cct", Json.num s.Peel_util.Stats.max);
                ( "ccts",
                  Json.Arr (List.map Json.num outcome.Runner.ccts) );
                ("expected_deliveries", Json.int expected_deliveries);
                ("diagnostics", Json.int (List.length ds));
              ] );
          ("counters", Trace.counters_to_json trace);
          ("links", Peel_sim.Telemetry.to_json outcome.Runner.telemetry);
          ("flows", Json.Arr (List.map flow_json flows));
          ("events", Trace.events_to_json trace);
        ]
    in
    Out_channel.with_open_text out (fun oc ->
        Out_channel.output_string oc (Json.to_string doc);
        Out_channel.output_char oc '\n');
    (match csv with
    | None -> ()
    | Some path ->
        Out_channel.with_open_text path (fun oc ->
            Out_channel.output_string oc (Trace.events_csv trace)));
    report ~quiet ds
      (Printf.sprintf "%s: %d events traced, " out (Trace.num_events trace))
      ~tail:(match csv with None -> "" | Some p -> Printf.sprintf "; CSV: %s" p)
  in
  Cmd.v
    (Cmd.info "trace" ~exits:std_exits
       ~doc:
         "Run one Broadcast workload with structured tracing on and export \
          the trace as JSON (and optionally CSV); exit non-zero if the trace \
          fails its conservation/consistency lint.")
    Term.(
      const run $ fabric_term $ seed_term $ scale_term $ scheme $ size_mb
      $ load $ n $ chunks $ level $ sample $ out $ csv $ quiet_term)

(* ------------------------------------------------------------------ *)
(* failover                                                            *)
(* ------------------------------------------------------------------ *)

let failover_cmd =
  let module Trace = Peel_sim.Trace in
  let scheme =
    Arg.(
      value
      & opt
          (conv_of ~what:"scheme" Failover.scheme_of_string
             Failover.scheme_to_string)
          Failover.Peel
      & info [ "scheme" ] ~docv:"SCHEME" ~doc:"Scheme: peel, ring or tree.")
  in
  let size_mb =
    Arg.(value & opt float 16.0 & info [ "size" ] ~doc:"Message size in MB.")
  in
  let chunks =
    Arg.(value & opt int 8 & info [ "chunks" ] ~doc:"Pipelined chunks per message.")
  in
  let fail_frac =
    Arg.(
      value & opt float 0.05
      & info [ "fail-frac" ]
          ~doc:"Fraction of fabric duplex links the schedule fails.")
  in
  let fail_at =
    Arg.(
      value & opt float 0.4
      & info [ "fail-at" ]
          ~doc:"Failure instant as a fraction of the clean (failure-free) CCT.")
  in
  let recover_after =
    Arg.(
      value & opt (some float) None
      & info [ "recover-after" ]
          ~doc:"Bring the links back up this many seconds after the failure.")
  in
  let detection =
    Arg.(
      value & opt float 500e-6
      & info [ "detection" ] ~doc:"Controller failure-detection delay (s).")
  in
  let reaction =
    Arg.(
      value & opt float 1e-3
      & info [ "reaction" ] ~doc:"Controller replan delay after detection (s).")
  in
  let run fabric seed scale scheme size_mb chunks fail_frac fail_at
      recover_after detection reaction quiet =
    let rng = Rng.create seed in
    let members = Spec.place fabric rng ~scale () in
    let source = List.hd members in
    let spec =
      {
        Spec.id = 0;
        arrival = 0.0;
        source;
        dests = List.filter (fun m -> m <> source) members;
        members;
        bytes = size_mb *. 1e6;
      }
    in
    let ctrl = { Failover.default_ctrl with detection; reaction } in
    (* Clean run first: the failure instant is a fraction of its CCT. *)
    let clean =
      List.hd (Failover.run ~chunks ~ctrl fabric scheme [ spec ]).Runner.ccts
    in
    (* Draw the victim links with connectivity ensured, then put them
       back up — only the schedule fails them, mid-run. *)
    let ids = Fabric.fail_random fabric ~rng ~tier:`All ~fraction:fail_frac () in
    List.iter (Fabric.recover_link fabric) ids;
    let fail_time = fail_at *. clean in
    let faults =
      Peel_sim.Fault.schedule_of_failures ~at:fail_time
        ?recover_at:(Option.map (fun d -> fail_time +. d) recover_after)
        ids
    in
    let trace = Trace.create ~level:Trace.Full () in
    let out = Failover.run ~chunks ~ctrl ~trace ~faults fabric scheme [ spec ] in
    let failed_cct = List.hd out.Runner.ccts in
    let c = Trace.counters trace in
    if not quiet then begin
      Printf.printf "fabric: %s; scheme %s; %d GPUs x %.0f MB in %d chunks\n"
        (Fabric.describe fabric)
        (Failover.scheme_to_string scheme)
        scale size_mb chunks;
      Printf.printf "schedule: %d duplex links fail at %s (%.0f%% of clean CCT)%s\n"
        (List.length ids)
        (Peel_util.Table.fsec fail_time)
        (fail_at *. 100.)
        (match recover_after with
        | None -> ", no recovery"
        | Some d -> Printf.sprintf ", recover after %s" (Peel_util.Table.fsec d));
      Printf.printf "controller: detection %s, reaction %s\n\n"
        (Peel_util.Table.fsec detection)
        (Peel_util.Table.fsec reaction);
      Peel_util.Table.print ~header:[ "metric"; "value" ]
        [
          [ "clean CCT"; Peel_util.Table.fsec clean ];
          [ "failover CCT"; Peel_util.Table.fsec failed_cct ];
          [ "degradation"; Printf.sprintf "%.2fx" (failed_cct /. clean) ];
          [ "link failures"; string_of_int c.Trace.link_fails ];
          [ "link recoveries"; string_of_int c.Trace.link_recovers ];
          [ "replans"; string_of_int c.Trace.replans ];
          [ "drops"; string_of_int c.Trace.drops ];
          [ "retransmits"; string_of_int c.Trace.retransmits ];
          [ "deliveries"; string_of_int c.Trace.deliveries ];
        ];
      print_newline ()
    end;
    let expected_deliveries = chunks * List.length spec.Spec.dests in
    let ds =
      Peel_check.Check_sim.check_outcome ~expected:1 ~ccts:out.Runner.ccts
        ~makespan:out.Runner.makespan out.Runner.telemetry
      @ Peel_check.Check_sim.check_trace ~expected_deliveries trace
    in
    report ~quiet ds
      (Printf.sprintf "failover %s: CCT %s -> %s (%.2fx), %d replan(s), "
         (Failover.scheme_to_string scheme)
         (Peel_util.Table.fsec clean)
         (Peel_util.Table.fsec failed_cct)
         (failed_cct /. clean) c.Trace.replans)
  in
  Cmd.v
    (Cmd.info "failover" ~exits:std_exits
       ~doc:
         "Run one broadcast with a scheduled mid-run link failure; the \
          controller re-peels around the cut (PEEL) or repairs end to end \
          (ring/tree). Exits non-zero if the trace fails its lint, including \
          SIM007: no traffic through a down link.")
    Term.(
      const run $ fabric_term $ seed_term $ scale_term $ scheme $ size_mb
      $ chunks $ fail_frac $ fail_at $ recover_after $ detection $ reaction
      $ quiet_term)

(* ------------------------------------------------------------------ *)
(* refine                                                              *)
(* ------------------------------------------------------------------ *)

let refine_cmd =
  let module Trace = Peel_sim.Trace in
  let open Peel_ctrl in
  let schemes =
    Arg.(
      value
      & opt
          (list (conv_of ~what:"scheme" Refine.scheme_of_string Refine.scheme_to_string))
          Refine.all_schemes
      & info [ "schemes" ] ~docv:"S1,S2"
          ~doc:"Schemes: peel-static, peel-refined, ipmc.")
  in
  let n =
    Arg.(value & opt int 6 & info [ "n" ] ~doc:"Number of multicast groups.")
  in
  let size_mb =
    Arg.(value & opt float 64.0 & info [ "size" ] ~doc:"Message size in MB.")
  in
  let load =
    Arg.(value & opt float 0.5 & info [ "load" ] ~doc:"Offered load (0,1].")
  in
  let hold =
    Arg.(
      value & opt float 0.05
      & info [ "hold" ] ~doc:"Mean group lifetime after arrival (s).")
  in
  let fragmentation =
    Arg.(
      value & opt float 0.6
      & info [ "fragmentation" ]
          ~doc:"Fraction of servers relocated off the contiguous placement.")
  in
  let chunks =
    Arg.(value & opt int 16 & info [ "chunks" ] ~doc:"Pipelined chunks per message.")
  in
  let rpc =
    Arg.(
      value & opt float 2e-3
      & info [ "rpc" ] ~doc:"Controller-to-switch RPC round (s).")
  in
  let per_rule =
    Arg.(
      value & opt float 20e-6
      & info [ "per-rule" ] ~doc:"Serial install time per TCAM entry (s).")
  in
  let capacity =
    Arg.(
      value & opt int 4
      & info [ "capacity" ]
          ~doc:"Per-switch TCAM entry budget (<= 0 disables refinement).")
  in
  let budget =
    Arg.(
      value & opt int 1
      & info [ "budget" ]
          ~doc:
            "Static-stage ToR-prefix budget (over-covering cover); 0 = exact \
             covers, nothing to refine away.")
  in
  let run fabric seed scale schemes n size_mb load hold fragmentation chunks
      rpc per_rule capacity policy budget quiet =
    let groups =
      Spec.poisson_groups fabric (Rng.create seed) ~n ~scale
        ~bytes:(size_mb *. 1e6) ~load ~hold ~fragmentation ()
    in
    let cfg =
      {
        Controller.rpc;
        per_rule;
        capacity;
        policy;
        budget = (if budget <= 0 then None else Some budget);
      }
    in
    let run_scheme scheme =
      let trace = Trace.create ~level:Trace.Full () in
      (scheme, trace, Refine.run ~chunks ~cfg ~trace fabric scheme groups)
    in
    let outs = List.map run_scheme schemes in
    if not quiet then begin
      Printf.printf
        "fabric: %s; %d groups of %d GPUs x %.0f MB in %d chunks\n"
        (Fabric.describe fabric) n scale size_mb chunks;
      Printf.printf
        "controller: rpc %s, %s/rule, TCAM budget %d (%s), prefix budget %s\n\n"
        (Peel_util.Table.fsec rpc)
        (Peel_util.Table.fsec per_rule)
        capacity
        (Tcam.policy_to_string policy)
        (match cfg.Controller.budget with
        | None -> "exact"
        | Some b -> string_of_int b);
      Peel_util.Table.print
        ~header:
          [ "scheme"; "mean CCT"; "link GB"; "waste GB"; "installs";
            "evicts"; "refined%" ]
        (List.map
           (fun (scheme, trace, out) ->
             let c = Trace.counters trace in
             let total =
               Refine.static_chunks out + Refine.refined_chunks out
             in
             [
               Refine.scheme_to_string scheme;
               Peel_util.Table.fsec
                 (Peel_util.Stats.mean out.Refine.run.Runner.ccts);
               Printf.sprintf "%.3f" (c.Trace.bytes_reserved /. 1e9);
               Printf.sprintf "%.3f"
                 (Refine.total_overcover_bytes out /. 1e9);
               string_of_int (Controller.installs out.Refine.controller);
               string_of_int (Controller.evictions out.Refine.controller);
               (if total = 0 then "-"
                else
                  Printf.sprintf "%.0f%%"
                    (100.0
                    *. float_of_int (Refine.refined_chunks out)
                    /. float_of_int total));
             ])
           outs);
      print_newline ()
    end;
    (* Full lint: the generic simulation checks plus the CTRL family,
       and a replay of peel-refined to pin CTRL004 determinism. *)
    let ds =
      List.concat_map
        (fun (scheme, trace, out) ->
          let loc_prefix = Refine.scheme_to_string scheme in
          let tag d = { d with D.location = loc_prefix ^ ": " ^ d.D.location } in
          let expected_deliveries =
            List.fold_left
              (fun acc (r : Refine.report) ->
                acc + (r.Refine.r_chunks * r.Refine.r_ndests))
              0 out.Refine.reports
          in
          List.map tag
            (Peel_check.Check_sim.check_outcome ~expected:n
               ~ccts:out.Refine.run.Runner.ccts
               ~makespan:out.Refine.run.Runner.makespan
               out.Refine.run.Runner.telemetry
            @ Peel_check.Check_sim.check_trace ~expected_deliveries trace
            @ Check_ctrl.check_handoff out.Refine.handoffs
            @ (match Controller.tcam out.Refine.controller with
              | Some tc -> Check_ctrl.check_budget tc
              | None -> [])
            @ Check_ctrl.check_trace trace))
        outs
    in
    let replay =
      if List.mem Refine.Peel_refined schemes then begin
        let fp () =
          (Refine.run ~chunks ~cfg fabric Refine.Peel_refined groups)
            .Refine.fingerprint
        in
        Check_ctrl.check_replay ~first:(fp ()) ~second:(fp ())
      end
      else []
    in
    let ds = ds @ replay in
    report ~quiet ds (Printf.sprintf "refine: %d scheme(s), " (List.length outs))
  in
  Cmd.v
    (Cmd.info "refine" ~exits:std_exits
       ~doc:
         "Run a churning multicast group schedule through the two-stage \
          refinement control plane (static prefix rules, then exact \
          per-group rules once installs land) and lint the CTRL \
          invariants; exit non-zero on errors.")
    Term.(
      const run $ fabric_term $ seed_term $ scale_term $ schemes $ n $ size_mb
      $ load $ hold $ fragmentation $ chunks $ rpc $ per_rule $ capacity
      $ policy_term $ budget $ quiet_term)

(* ------------------------------------------------------------------ *)
(* serve                                                               *)
(* ------------------------------------------------------------------ *)

let serve_cmd =
  let open Peel_ctrl in
  let events =
    Arg.(
      value & opt int 2000
      & info [ "events" ] ~doc:"Stream events to process before stopping.")
  in
  let rate =
    Arg.(
      value & opt float 400.0
      & info [ "rate" ] ~doc:"Group arrivals per second (Poisson).")
  in
  let size_mb =
    Arg.(value & opt float 1.0 & info [ "size" ] ~doc:"Message size in MB.")
  in
  let hold =
    Arg.(
      value & opt float 0.5
      & info [ "hold" ] ~doc:"Mean group lifetime after arrival (s).")
  in
  let churn =
    Arg.(
      value & opt float 80.0
      & info [ "churn" ] ~doc:"Join/leave deltas per group per second.")
  in
  let sends =
    Arg.(
      value & opt float 40.0
      & info [ "sends" ] ~doc:"Multicast sends per group per second.")
  in
  let fragmentation =
    Arg.(
      value & opt float 0.0
      & info [ "fragmentation" ]
          ~doc:"Fraction of servers relocated off the contiguous placement.")
  in
  let capacity =
    Arg.(
      value & opt int 1024
      & info [ "capacity" ]
          ~doc:"Per-switch TCAM entry budget (<= 0 = everything unicast).")
  in
  let admission =
    Arg.(
      value
      & opt
          (conv_of ~what:"admission policy" Service.admission_of_string
             Service.admission_to_string)
          Service.Evict
      & info [ "admission" ] ~docv:"POLICY"
          ~doc:"Admission under saturation: evict or deny.")
  in
  let batch =
    Arg.(
      value
      & opt int Service.default_config.Service.batch
      & info [ "batch" ] ~doc:"Pending installs per compile flush.")
  in
  let budget =
    Arg.(
      value & opt int 1
      & info [ "budget" ] ~doc:"ToR-prefix budget for compiled plans (0 = exact).")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Print the SLO record as JSON instead of a table.")
  in
  let no_cache =
    Arg.(
      value & flag
      & info [ "no-cache" ]
          ~doc:
            "Disable the peel/plan memo caches.  Decisions are recomputed \
             from scratch; the replay fingerprint must not change.")
  in
  let run fabric seed scale events rate size_mb hold churn sends fragmentation
      capacity policy admission batch budget quiet json no_cache =
    let cfg =
      {
        Service.default_config with
        Service.capacity;
        policy;
        admission;
        batch;
        budget = (if budget <= 0 then None else Some budget);
        use_cache = not no_cache;
      }
    in
    let tenants =
      [
        Stream.tenant ~rate ~scale ~bytes:(size_mb *. 1e6) ~hold ~churn ~sends
          ~fragmentation ();
      ]
    in
    let stream () = Stream.create fabric (Rng.create seed) ~tenants () in
    let serve ?(cfg = cfg) () = Service.run ~cfg fabric ~events (stream ()) in
    (* The SVC005 replay contract: two runs of one seed must produce
       byte-identical decision logs — and so must a run with the memo
       caches disabled (cache neutrality).  The first run also counts
       the words [Service.run] allocates. *)
    let stream1 = stream () in
    let g0 = Gc.quick_stat () in
    let out1 = Service.run ~cfg fabric ~events stream1 in
    let g1 = Gc.quick_stat () in
    let per_event w = if events > 0 then w /. float_of_int events else 0.0 in
    let minor_words = per_event (g1.Gc.minor_words -. g0.Gc.minor_words) in
    let promoted_words = per_event (g1.Gc.promoted_words -. g0.Gc.promoted_words) in
    let out = serve () in
    let cache_ds =
      if not cfg.Service.use_cache then []
      else
        let nc = serve ~cfg:{ cfg with Service.use_cache = false } () in
        Check_service.check_replay ~first:out1.Service.o_fingerprint
          ~second:nc.Service.o_fingerprint
    in
    let s = out.Service.o_slo in
    let memo_row name (c : Service.memo_counts) =
      [
        name ^ " hits / misses / entries";
        Printf.sprintf "%d / %d / %d" c.Service.hits c.Service.misses
          c.Service.entries;
      ]
    in
    let memo_json (c : Service.memo_counts) =
      Json.Obj
        [
          ("hits", Json.int c.Service.hits);
          ("misses", Json.int c.Service.misses);
          ("entries", Json.int c.Service.entries);
        ]
    in
    if not quiet && not json then begin
      Printf.printf "fabric: %s; %d-GPU groups at %.0f/s, %.0f MB sends\n"
        (Fabric.describe fabric) scale rate size_mb;
      Printf.printf
        "service: TCAM %d (%s, %s), batch %d, prefix budget %s\n\n"
        capacity
        (Tcam.policy_to_string policy)
        (Service.admission_to_string admission)
        cfg.Service.batch
        (match cfg.Service.budget with
        | None -> "exact"
        | Some b -> string_of_int b);
      Peel_util.Table.print
        ~header:[ "counter"; "value" ]
        [
          [ "events"; string_of_int s.Service.events ];
          [ "creates / departs";
            Printf.sprintf "%d / %d" s.Service.creates s.Service.departs ];
          [ "joins / leaves";
            Printf.sprintf "%d / %d" s.Service.joins s.Service.leaves ];
          [ "delta repeels"; string_of_int s.Service.delta_repeels ];
          [ "full repeels (fallbacks)";
            Printf.sprintf "%d (%d)" s.Service.full_repeels
              s.Service.splice_fallbacks ];
          [ "compile batches"; string_of_int s.Service.batches ];
          [ "installs / evictions / denials";
            Printf.sprintf "%d / %d / %d" s.Service.installs
              s.Service.evictions s.Service.denials ];
          [ "sends (multicast / unicast)";
            Printf.sprintf "%d / %d" s.Service.multicast_chunks
              s.Service.unicast_chunks ];
          [ "backlog (max / final)";
            Printf.sprintf "%d / %d" s.Service.max_backlog
              s.Service.final_backlog ];
          [ "plan latency p50 / p99";
            Printf.sprintf "%s / %s"
              (Peel_util.Table.fsec s.Service.plan_p50_s)
              (Peel_util.Table.fsec s.Service.plan_p99_s) ];
          [ "cache hits / misses";
            Printf.sprintf "%d / %d" s.Service.cache_hits
              s.Service.cache_misses ];
          memo_row "tree memo" s.Service.tree_memo;
          memo_row "plan memo" s.Service.plan_memo;
          memo_row "bound memo" s.Service.bound_memo;
          [ "minor / promoted words per event";
            Printf.sprintf "%.1f / %.1f" minor_words promoted_words ];
          [ "events/sec"; Printf.sprintf "%.0f" s.Service.events_per_sec ];
          [ "fingerprint"; out.Service.o_fingerprint ];
        ];
      print_newline ()
    end;
    if json then
      print_endline
        (Json.to_string
           (Json.Obj
              [
                ("events", Json.int s.Service.events);
                ("delta_repeels", Json.int s.Service.delta_repeels);
                ("full_repeels", Json.int s.Service.full_repeels);
                ("splice_fallbacks", Json.int s.Service.splice_fallbacks);
                ("installs", Json.int s.Service.installs);
                ("evictions", Json.int s.Service.evictions);
                ("denials", Json.int s.Service.denials);
                ("multicast_chunks", Json.int s.Service.multicast_chunks);
                ("unicast_chunks", Json.int s.Service.unicast_chunks);
                ("max_backlog", Json.int s.Service.max_backlog);
                ("plan_p50_s", Json.num s.Service.plan_p50_s);
                ("plan_p99_s", Json.num s.Service.plan_p99_s);
                ("cache_hits", Json.int s.Service.cache_hits);
                ("cache_misses", Json.int s.Service.cache_misses);
                ("tree_memo", memo_json s.Service.tree_memo);
                ("plan_memo", memo_json s.Service.plan_memo);
                ("bound_memo", memo_json s.Service.bound_memo);
                ("minor_words_per_event", Json.num minor_words);
                ("promoted_words_per_event", Json.num promoted_words);
                ("events_per_sec", Json.num s.Service.events_per_sec);
                ("fingerprint", Json.str out.Service.o_fingerprint);
              ]));
    let ds =
      Check_service.check_state out
      @ Check_service.check_replay ~first:out1.Service.o_fingerprint
          ~second:out.Service.o_fingerprint
      @ cache_ds
    in
    report ~quiet ds (Printf.sprintf "serve: %d event(s), " s.Service.events)
  in
  Cmd.v
    (Cmd.info "serve" ~exits:std_exits
       ~doc:
         "Run the open-loop multicast-as-a-service controller over a Poisson \
          create/join/leave/send/depart stream (delta re-peeling, batched \
          installs, TCAM admission), lint the SVC invariants and the \
          same-seed replay contract; exit non-zero on errors.")
    Term.(
      const run $ fabric_term $ seed_term $ scale_term $ events $ rate
      $ size_mb $ hold $ churn $ sends $ fragmentation $ capacity $ policy_term
      $ admission $ batch $ budget $ quiet_term $ json $ no_cache)

(* ------------------------------------------------------------------ *)
(* compile                                                             *)
(* ------------------------------------------------------------------ *)

(* Testing hook behind --corrupt: seed exactly the table corruption a
   given CMP code exists to catch, so the lint alias can prove the
   checker fails loudly end to end. *)
let corrupt_compiled (t : Peel_compile.Compile.t) code =
  let module C = Peel_compile.Compile in
  let map_nth n f l = List.mapi (fun i x -> if i = n then f x else x) l in
  let map_first_table f = { t with C.tables = map_nth 0 f t.C.tables } in
  match code with
  | `Cmp001 ->
      (* Drop the last table's final (shortest-prefix) entry: its
         headers have no installed ancestor left, so the packets that
         selected it are silently dropped. *)
      let n = List.length t.C.tables - 1 in
      {
        t with
        C.tables =
          map_nth n
            (fun (tb : C.table) ->
              {
                tb with
                C.entries =
                  (match List.rev tb.C.entries with
                  | [] -> []
                  | _ :: rest -> List.rev rest);
              })
            t.C.tables;
      }
  | `Cmp002 ->
      (* Append a duplicate of the highest-priority entry at the lowest
         priority: shadowed dead weight. *)
      map_first_table (fun (tb : C.table) ->
          match tb.C.entries with
          | [] -> tb
          | e :: _ -> { tb with C.entries = tb.C.entries @ [ e ] })
  | `Cmp003 ->
      (* Knock one port off an entry: it no longer replicates to its
         whole block, conflicting with the static rule for the prefix. *)
      map_first_table (fun (tb : C.table) ->
          {
            tb with
            C.entries =
              map_nth 0
                (fun (e : C.entry) ->
                  { e with C.ports = List.tl e.C.ports })
                tb.C.entries;
          })
  | `Cmp004 ->
      (* Rewrite the budget below the busiest table: the proof fails. *)
      { t with C.capacity = Some (C.max_entries t - 1) }
  | `Cmp005 ->
      (* Erase an entry's provenance: soundness becomes unprovable. *)
      map_first_table (fun (tb : C.table) ->
          {
            tb with
            C.entries =
              map_nth 0
                (fun (e : C.entry) -> { e with C.sources = [] })
                tb.C.entries;
          })

let compile_cmd =
  let module C = Peel_compile.Compile in
  let groups =
    Arg.(
      value & opt int 8
      & info [ "groups" ] ~docv:"N"
          ~doc:"Concurrent multicast groups in the batch.")
  in
  let capacity =
    Arg.(
      value
      & opt (some int) None
      & info [ "capacity" ] ~docv:"N"
          ~doc:"Per-switch TCAM entry budget to compile (and prove) against.")
  in
  let aggregate =
    Arg.(
      value & flag
      & info [ "aggregate" ]
          ~doc:
            "Merge sibling/nested prefix entries across groups when a table \
             exceeds the budget (trades over-delivery for entries).")
  in
  let fragmentation =
    Arg.(
      value & opt float 0.5
      & info [ "fragmentation" ]
          ~doc:"Fraction of servers relocated off the contiguous placement.")
  in
  let corrupt =
    Arg.(
      value
      & opt
          (some
             (enum
                [ ("cmp001", `Cmp001); ("cmp002", `Cmp002); ("cmp003", `Cmp003);
                  ("cmp004", `Cmp004); ("cmp005", `Cmp005) ]))
          None
      & info [ "corrupt" ] ~docv:"CODE"
          ~doc:
            "Testing hook: seed the table corruption CODE (cmp001..cmp005) \
             exists to catch, then run the checker — must exit 1.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Print the compiled tables and diagnostics as JSON on stdout \
             (schema peel-compile/1) instead of the human report.")
  in
  let run fabric seed scale groups capacity aggregate fragmentation corrupt
      quiet json =
    let rng = Rng.create seed in
    let batch =
      List.init groups (fun gid ->
          let members = Spec.place fabric rng ~scale ~fragmentation () in
          let source = List.hd members in
          let dests = List.filter (fun m -> m <> source) members in
          (gid, Peel.plan fabric ~source ~dests))
    in
    let t = C.compile ?capacity ~aggregate fabric batch in
    let t = match corrupt with None -> t | Some c -> corrupt_compiled t c in
    let ds = Peel_compile.Check_compile.check fabric t in
    let waste =
      List.fold_left
        (fun acc (gid, _) ->
          acc + List.length (C.group_waste fabric t ~group:gid))
        0 batch
    in
    let doc () =
      let table_json (sw, entries, bytes) =
        Json.Obj
          [
            ("switch", Json.str (C.switch_to_string sw));
            ("entries", Json.int entries);
            ("bytes", Json.int bytes);
          ]
      in
      Json.Obj
        [
          ("schema", Json.str "peel-compile/1");
          ( "meta",
            Json.Obj
              [
                ("fabric", Json.str (Fabric.describe fabric));
                ("seed", Json.int seed);
                ("scale", Json.int scale);
                ("groups", Json.int groups);
                ( "capacity",
                  match capacity with
                  | None -> Json.Null
                  | Some c -> Json.int c );
                ("aggregate", Json.Bool aggregate);
                ("fragmentation", Json.num fragmentation);
              ] );
          ("tables", Json.Arr (List.map table_json (C.footprint t)));
          ( "totals",
            Json.Obj
              [
                ("entries", Json.int (C.total_entries t));
                ("max_entries", Json.int (C.max_entries t));
                ("merges", Json.int t.C.merges);
                ("waste_racks", Json.int waste);
                ("fits", Json.Bool (C.fits t));
              ] );
          ("findings", Json.Arr (List.map finding_json ds));
          ("errors", Json.int (List.length (D.errors ds)));
        ]
    in
    if not (quiet || json) then begin
      Printf.printf "fabric: %s; %d groups of %d GPUs%s%s\n"
        (Fabric.describe fabric) groups scale
        (match capacity with
        | None -> ""
        | Some c -> Printf.sprintf "; TCAM budget %d" c)
        (if aggregate then "; aggregation on" else "");
      Peel_util.Table.print ~header:[ "switch"; "entries"; "bytes" ]
        (List.map
           (fun (sw, entries, bytes) ->
             [
               C.switch_to_string sw; string_of_int entries;
               string_of_int bytes;
             ])
           (C.footprint t));
      print_newline ()
    end;
    report
      ?json:(if json then Some (doc ()) else None)
      ~quiet ds
      (Printf.sprintf
         "compile: %d entries (max %d/switch), %d merge(s), %d waste rack \
          slot(s), fits=%b, "
         (C.total_entries t) (C.max_entries t) t.C.merges waste (C.fits t))
  in
  Cmd.v
    (Cmd.info "compile" ~exits:std_exits
       ~doc:
         "Compile a batch of concurrent group plans into concrete per-switch \
          rule tables (dedup + optional cross-group aggregation) and prove \
          them equivalent with the CMP static checks; exit 1 on any error.")
    Term.(
      const run $ fabric_term $ seed_term $ scale_term $ groups $ capacity
      $ aggregate $ fragmentation $ corrupt $ quiet_term $ json)

(* ------------------------------------------------------------------ *)
(* collective                                                          *)
(* ------------------------------------------------------------------ *)

let collective_cmd =
  let op =
    Arg.(
      value
      & opt
          (enum
             [ ("allgather", `Allgather); ("reduce", `Reduce);
               ("allreduce", `Allreduce) ])
          `Allreduce
      & info [ "op" ] ~docv:"OP" ~doc:"Collective: allgather, reduce, allreduce.")
  in
  let size_mb =
    Arg.(value & opt float 64.0 & info [ "size" ] ~doc:"Message size in MB.")
  in
  let run fabric seed scale op size_mb =
    let rng = Rng.create seed in
    let members = Spec.place fabric rng ~scale () in
    let source = List.hd members in
    let spec =
      {
        Spec.id = 0;
        arrival = 0.0;
        source;
        dests = List.filter (fun m -> m <> source) members;
        members;
        bytes = size_mb *. 1e6;
      }
    in
    Printf.printf "fabric: %s; %d workers x %.0f MB\n\n" (Fabric.describe fabric)
      scale size_mb;
    let rows =
      match op with
      | `Allgather ->
          List.map
            (fun algo ->
              ( "allgather/" ^ Allgather.algo_to_string algo,
                List.hd (Allgather.run fabric algo [ spec ]).Runner.ccts ))
            [ Allgather.Ring_exchange; Allgather.Peel_multicast ]
      | `Reduce ->
          List.map
            (fun algo ->
              ( "reduce/" ^ Reduce.algo_to_string algo,
                List.hd (Reduce.run fabric algo [ spec ]).Runner.ccts ))
            [ Reduce.Ring_pass; Reduce.Btree_reduce ]
      | `Allreduce ->
          List.map
            (fun algo ->
              ( "allreduce/" ^ Allreduce.algo_to_string algo,
                List.hd (Allreduce.run fabric algo [ spec ]).Runner.ccts ))
            [ Allreduce.Ring_rs_ag; Allreduce.Reduce_then_peel ]
    in
    Peel_util.Table.print ~header:[ "algorithm"; "CCT" ]
      (List.map (fun (name, cct) -> [ name; Peel_util.Table.fsec cct ]) rows)
  in
  Cmd.v
    (Cmd.info "collective" ~exits:std_exits ~doc:"Simulate allgather / reduce / allreduce.")
    Term.(const run $ fabric_term $ seed_term $ scale_term $ op $ size_mb)

(* ------------------------------------------------------------------ *)
(* zoo                                                                 *)
(* ------------------------------------------------------------------ *)

(* Testing hook behind --corrupt: seed exactly the malformation a given
   TOPO code exists to catch, so the lint alias can prove the zoo
   checkers fail loudly end to end (same pattern as compile's CMP
   hook). topo001/topo002 corrupt the fabric before the battery runs;
   topo003/topo004 corrupt the planner's outputs and run the dedicated
   checker directly. *)
let corrupt_zoo_fabric z code =
  match code with
  | `Topo001 ->
      (* Drag a switch down to the endpoint layer: the layering is no
         longer well formed (switches live on layers >= 1). *)
      z.Zoo.layer_of.(z.Zoo.tors.(0)) <- 0;
      z
  | `Topo002 ->
      (* Drop the last ToR from the roster: the class's size invariant
         (ToR count derived from the parameters) breaks. *)
      { z with Zoo.tors = Array.sub z.Zoo.tors 0 (Array.length z.Zoo.tors - 1) }

(* Attach one extra node to the tree through an up link that does not
   descend the BFS layering — valid by every TREE check (live link,
   right direction, reached once), caught only by TOPO003. *)
let corrupt_zoo_tree g tree ~source =
  let module Tree = Peel_steiner.Tree in
  let dist = Graph.bfs_dist g source in
  let nodes = Graph.num_nodes g in
  let found = ref None in
  for u = 0 to nodes - 1 do
    if !found = None && Tree.mem tree u then
      Array.iter
        (fun (v, lid) ->
          if
            !found = None && Graph.link_up g lid
            && (not (Tree.mem tree v))
            && dist.(v) <> Graph.unreachable
            && dist.(u) >= dist.(v)
          then found := Some (v, (u, lid)))
        (Graph.out_links g u)
  done;
  match !found with
  | None ->
      failwith
        "topo003 corruption: no non-descending attachment exists (try a \
         different seed or topology)"
  | Some binding ->
      let parents =
        binding
        :: List.map (fun (p, c, lid) -> (c, (p, lid))) (Tree.edges tree)
      in
      Tree.of_parents g ~root:source ~parents

let zoo_cmd =
  let module Zoo = Peel_topology.Zoo in
  let module Layer_peel = Peel_steiner.Layer_peel in
  let module Tree = Peel_steiner.Tree in
  let topo =
    Arg.(
      value
      & opt
          (enum (List.map (fun c -> (Zoo.cls_to_string c, c)) Zoo.all_classes))
          Zoo.Jellyfish
      & info [ "topo" ] ~docv:"CLASS"
          ~doc:"Topology class: abfattree, vl2, jellyfish or xpander.")
  in
  let k =
    Arg.(
      value & opt int 4
      & info [ "k" ] ~docv:"K" ~doc:"abfattree: pod count / arity (even, >= 4).")
  in
  let da =
    Arg.(
      value & opt int 4
      & info [ "da" ] ~doc:"vl2: aggregation port count (even).")
  in
  let di =
    Arg.(
      value & opt int 4
      & info [ "di" ] ~doc:"vl2: aggregation switch count (even).")
  in
  let size =
    Arg.(
      value & opt int 12
      & info [ "size" ] ~docv:"N" ~doc:"jellyfish: switch count.")
  in
  let degree =
    Arg.(
      value & opt int 3
      & info [ "degree" ] ~docv:"D"
          ~doc:"jellyfish / xpander: inter-switch network degree.")
  in
  let lift =
    Arg.(
      value & opt int 4
      & info [ "lift" ] ~docv:"L" ~doc:"xpander: lift order (switches = (D+1)*L).")
  in
  let group =
    Arg.(
      value & opt int 6
      & info [ "group" ] ~docv:"N" ~doc:"Multicast group size (source + dests).")
  in
  let fail_frac =
    Arg.(
      value & opt float 0.0
      & info [ "fail" ] ~docv:"F"
          ~doc:"Fraction of inter-switch links to fail before planning.")
  in
  let corrupt =
    Arg.(
      value
      & opt
          (some
             (enum
                [ ("topo001", `Topo001); ("topo002", `Topo002);
                  ("topo003", `Topo003); ("topo004", `Topo004) ]))
          None
      & info [ "corrupt" ] ~docv:"CODE"
          ~doc:
            "Testing hook: seed the malformation CODE (topo001..topo004) \
             exists to catch, then run the checkers — must exit 1.")
  in
  let run topo k da di size degree lift seed group fail_frac corrupt quiet =
    let z =
      match topo with
      | Zoo.Abfattree -> Zoo.abfattree ~k ()
      | Zoo.Vl2 -> Zoo.vl2 ~da ~di ()
      | Zoo.Jellyfish ->
          Zoo.jellyfish ~switches:size ~net_degree:degree ~seed ()
      | Zoo.Xpander -> Zoo.xpander ~net_degree:degree ~lift ~seed ()
    in
    let z =
      match corrupt with
      | Some ((`Topo001 | `Topo002) as c) -> corrupt_zoo_fabric z c
      | _ -> z
    in
    let fabric = Fabric.of_zoo z in
    let g = Fabric.graph fabric in
    let rng = Rng.create seed in
    if fail_frac <> 0.0 then
      ignore (Fabric.fail_random fabric ~rng ~tier:`All ~fraction:fail_frac ());
    let hosts = Fabric.hosts fabric in
    let n = Array.length hosts in
    let picks =
      Rng.sample_without_replacement rng n (min n (max 2 group))
      |> List.map (fun i -> hosts.(i))
    in
    let source = List.hd picks in
    let dests = List.tl picks in
    if not quiet then begin
      Printf.printf "fabric: %s\n" (Fabric.describe fabric);
      Printf.printf "layers:";
      for l = 1 to Fabric.num_layers fabric - 1 do
        Printf.printf " L%d=%d" l
          (Array.length (Fabric.switches_at_layer fabric l))
      done;
      Printf.printf "; group: %d endpoints, source node %d\n"
        (List.length picks) source;
      (match Layer_peel.peel_general g ~source ~dests with
      | None -> print_endline "tree: destinations unreachable"
      | Some tree ->
          let cost = Tree.cost tree in
          (match Peel_steiner.Exact.oracle g ~source ~dests with
          | None ->
              Printf.printf "tree: %d links (oracle declined the instance)\n"
                cost
          | Some opt ->
              Printf.printf "tree: %d links; exact optimum %d; ratio %.3f\n"
                cost opt
                (float_of_int cost /. float_of_int (max 1 opt)));
          let rules = Layer_peel.port_set_rules g [ tree ] in
          Printf.printf "port-set rules: %d switch(es), %d total\n"
            (List.length rules)
            (List.fold_left (fun a (_, c) -> a + c) 0 rules))
    end;
    let ds = Peel_check.check_scenario fabric ~source ~dests in
    let planner_ds =
      match corrupt with
      | Some `Topo003 -> (
          match Layer_peel.peel_general g ~source ~dests with
          | None -> []
          | Some tree ->
              Peel_check.Check_topology.check_general_tree g
                (corrupt_zoo_tree g tree ~source)
                ~source ~dests)
      | Some `Topo004 -> (
          match Layer_peel.peel_general g ~source ~dests with
          | None -> []
          | Some tree -> (
              match Layer_peel.farthest_layer g ~source ~dests with
              | None -> []
              | Some far ->
                  (* An "oracle" one link better than the greedy: the
                     inconsistency TOPO004 exists to catch. *)
                  Peel_check.Check_topology.check_ratio
                    ~cost:(Tree.cost tree)
                    ~opt:(Tree.cost tree + 1)
                    ~far
                    ~ndests:(List.length dests)))
      | _ -> []
    in
    let ds = D.sort (ds @ planner_ds) in
    report ~quiet ds (Printf.sprintf "zoo %s: " (Zoo.cls_to_string (Zoo.cls z)))
  in
  Cmd.v
    (Cmd.info "zoo" ~exits:std_exits
       ~doc:
         "Generate a zoo topology (abfattree, VL2, Jellyfish, Xpander), plan \
          a multicast group with the generalized layer-peeling planner, \
          measure it against the exact-Steiner oracle and run the TOPO \
          lint battery; exit 1 on any error-severity diagnostic.")
    Term.(
      const run $ topo $ k $ da $ di $ size $ degree $ lift $ seed_term
      $ group $ fail_frac $ corrupt $ quiet_term)

(* ------------------------------------------------------------------ *)
(* state                                                               *)
(* ------------------------------------------------------------------ *)

let state_cmd =
  let k = Arg.(value & pos 0 int 64 & info [] ~docv:"K") in
  let run k =
    Printf.printf
      "k=%d fat-tree (%d hosts)\n  PEEL static rules per switch: %d\n  naive IP multicast: %.3e entries\n  reduction: %.1e x\n  header: %d bits (%d B)\n"
      k (k * k * k / 4)
      (Peel_prefix.Rules.peel_entries ~k)
      (Peel_prefix.Rules.naive_ipmc_entries ~k)
      (Peel_prefix.Rules.state_reduction_factor ~k)
      (Peel_prefix.Header.header_bits ~k)
      (Peel_prefix.Header.header_bytes ~k)
  in
  Cmd.v
    (Cmd.info "state" ~exits:std_exits ~doc:"Switch-state and header accounting for degree K.")
    Term.(const run $ k)

(* ------------------------------------------------------------------ *)
(* experiment                                                          *)
(* ------------------------------------------------------------------ *)

let experiment_cmd =
  let open Peel_experiments in
  let entry =
    Arg.(
      required
      & pos 0
          (some (enum (List.map (fun (e : Registry.entry) -> (e.name, e)) Registry.all)))
          None
      & info [] ~docv:"NAME")
  in
  let quick = Arg.(value & flag & info [ "quick" ] ~doc:"Reduced trials.") in
  let run (entry : Registry.entry) quick jobs =
    apply_jobs jobs;
    entry.run (if quick then Common.Quick else Common.Full)
  in
  Cmd.v
    (Cmd.info "experiment" ~exits:std_exits ~doc:"Regenerate a paper table/figure by name.")
    Term.(const run $ entry $ quick $ jobs_term)

let () =
  let info =
    Cmd.info "peel-cli" ~version:"0.1.0" ~exits:std_exits
      ~doc:"Scalable datacenter multicast for AI collectives (PEEL)."
  in
  (* Map cmdliner's evaluation outcome onto the documented convention:
     usage errors exit 2 rather than cmdliner's default 124.  The
     library rejects an out-of-range flag value (a scale beyond the
     fabric, a zero budget) with [Invalid_argument], which is a usage
     error too; the runtime's bounds-check failure stays an internal
     error.  Checker diagnostics exit 1 from within the subcommand
     itself. *)
  let cmd =
    Cmd.group info
      [
        plan_cmd; check_cmd; compile_cmd; simulate_cmd; trace_cmd;
        failover_cmd; refine_cmd; serve_cmd; collective_cmd; zoo_cmd;
        state_cmd; experiment_cmd;
      ]
  in
  exit
    (match Cmd.eval_value ~catch:false cmd with
    | Ok (`Ok ()) | Ok `Help | Ok `Version -> 0
    | Error (`Parse | `Term) -> 2
    | Error `Exn -> 125
    | exception Invalid_argument msg when msg <> "index out of bounds" ->
        prerr_endline ("peel-cli: " ^ msg);
        2
    | exception e ->
        let bt = Printexc.get_backtrace () in
        Printf.eprintf "peel-cli: internal error, uncaught exception:\n%s\n%s%!"
          (Printexc.to_string e) bt;
        125)
