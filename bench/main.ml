(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md's experiment index) and times the core
   algorithms with Bechamel.

   Usage:
     dune exec bench/main.exe               # full run, all experiments
     dune exec bench/main.exe -- quick      # reduced trial counts
     dune exec bench/main.exe -- fig5 fig7  # selected experiments
     dune exec bench/main.exe -- micro      # Bechamel micro-benchmarks
     dune exec bench/main.exe -- -j 4 quick # 4 worker domains
     dune exec bench/main.exe -- guard      # drift check vs BENCH.json

   Every run (except [guard]) also writes BENCH.json (schema
   peel-bench/2) to the invocation directory: per-experiment wall time
   (plus speedup against the committed baseline when comparable),
   Bechamel ns/run and its OLS r² per algorithm, the minor words per
   event of the sharded event loop's row, the worker count, and a
   headline CCT comparison across the schemes.

   [guard] recomputes the deterministic sections (headline CCTs, the
   Quick failover and refinement tables) plus a jobs=1 vs jobs=4 sweep
   and compares them against the committed BENCH.json: any numeric
   drift means a simulation-behaviour change and exits non-zero.  It
   writes nothing. *)

open Peel_experiments
module Rng = Peel_util.Rng
module Json = Peel_util.Json
module Pool = Peel_util.Pool

let experiments : (string * string * (Common.mode -> unit)) list =
  [
    ("fig1", "E1: Broadcast bandwidth, Ring/Tree vs optimal", Exp_fig1.run);
    ("fig3", "E2: RSBF Bloom-filter header overhead", Exp_fig3.run);
    ("fig4", "E3: Orca controller-overhead inflation", Exp_fig4.run);
    ("fig5", "E4: CCT vs message size, all schemes", Exp_fig5.run);
    ("fig6", "E5: CCT vs scale", Exp_fig6.run);
    ("fig7", "E6: robustness to failures", Exp_fig7.run);
    ("state", "E7: switch state and header accounting", Exp_state.run);
    ("guard", "E8: DCQCN guard timer ablation", Exp_guard.run);
    ("approx", "E9: greedy quality and aggregate bandwidth", Exp_approx.run);
    ("frag", "E10: fragmentation ablation", Exp_frag.run);
    ("collectives", "E11 (ext): PEEL inside larger collectives", Exp_collectives.run);
    ("multipath", "E12 (ext): multicast vs multipath", Exp_multipath.run);
    ("loss", "E13 (ext): loss and selective repeat", Exp_loss.run);
    ("tenancy", "E14 (ext): concurrent jobs vs TCAM", Exp_tenancy.run);
    ("rail", "E15 (ext): rail-optimized fabric", Exp_rail.run);
    ("failover", "E16 (ext): mid-run failures and re-peeling", Exp_failover.run);
    ("refine", "E17 (ext): two-stage refinement control plane", Exp_refine.run);
    ("compile", "E18 (ext): rule compiler vs TCAM budget", Exp_compile.run);
    ("scale", "E19 (ext): sharded-engine scale sweep, k=16/32/64", Exp_scale.run);
    ("service", "E20 (ext): open-loop service control plane", Exp_service.run);
    ("zoo", "E21 (ext): topology zoo vs exact-Steiner oracle", Exp_zoo.run);
    ( "serve-scale",
      "E22 (ext): million-group service fast path",
      Exp_serve_scale.run );
  ]

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: the paper's complexity claims            *)
(* ------------------------------------------------------------------ *)

let heap_priorities =
  lazy
    (let rng = Rng.create 13 in
     Array.init 10_000 (fun _ -> Rng.float rng 1.0))

(* 10k no-op events through a fresh engine; [traced] toggles whether
   [Engine.schedule] pays the per-event trace bookkeeping, so the two
   rows measure exactly what the Trace.Off fast path saves. *)
let engine_churn ~traced () =
  let trace =
    if traced then Peel_sim.Trace.create ~level:Counters ()
    else Peel_sim.Trace.null
  in
  let engine = Peel_sim.Engine.create ~trace () in
  let prios = Lazy.force heap_priorities in
  Array.iter (fun p -> Peel_sim.Engine.schedule engine p ignore) prios;
  Peel_sim.Engine.run engine

(* A heap held at [pending] entries: each run pops the minimum and
   pushes a successor 1000 times, the steady state of an event loop at
   that depth.  The 2^20 row is about the depth [Stream]'s timer heap
   reaches after 300k events of E22's ramp (~870k timers). *)
let heap_hold_row ~pending =
  let module H = Peel_util.Pairing_heap in
  let incs =
    let rng = Rng.create 17 in
    Array.init 1000 (fun _ -> Rng.float rng 1.0)
  in
  let h = H.create () in
  let rng = Rng.create 13 in
  for i = 1 to pending do
    H.push h (Rng.float rng 1.0) i
  done;
  Bechamel.Test.make
    ~name:(Printf.sprintf "heap_push_pop_%dk_pending" (pending / 1024))
    (Bechamel.Staged.stage (fun () ->
         Array.iter
           (fun inc ->
             let p = H.min_prio h in
             H.push h (p +. inc) (H.pop_min h))
           incs))

(* The shape of the simulator's chunk walker ([Transfer.dag]): an
   arrival schedules the next hop's step at [now], and the step
   schedules the next arrival a link time later.  4096 chunks in
   flight hold the queue ~4k deep (sim-congestion peaks at 4,631), and
   half of all events are zero-delay.  Each run advances the clock by
   a fixed window: ~10k events. *)
let engine_walker_row () =
  let module E = Peel_sim.Engine in
  let incs =
    let rng = Rng.create 17 in
    Array.init 1024 (fun _ -> Rng.float rng 1.0)
  in
  let e = E.create () in
  let k = ref 0 and horizon = ref 0.0 in
  let rec arrive () = E.schedule e (E.now e) step
  and step () =
    k := (!k + 1) land 1023;
    E.schedule_in e incs.(!k) arrive
  in
  for _ = 1 to 4096 do
    step ()
  done;
  Bechamel.Test.make ~name:"engine_walker_10k_events_4k_pending"
    (Bechamel.Staged.stage (fun () ->
         (* 16384 events per unit of simulated time. *)
         horizon := !horizon +. 0.625;
         E.run ~until:!horizon e))

let shard_run_row = "shard_run_k32_btree_6x512"

(* sim-scale's shape (benchmark/sim.ml, seed 0): six 512-GPU 64 MB
   broadcasts on a k=32 fat-tree, each flattened on a fresh path cache,
   then sharded, planned and run on one shard.  One row per stage:
   btree's [Par.flatten] (the costliest of sim-scale's three schemes)
   and peel's (one [Layer_peel.build] per plan packet), [Soa.shard] +
   [Shard.plan] over btree's flows, and [Shard.run] over that plan,
   which is returned too. *)
let sim_scale_rows k32 =
  let open Bechamel in
  let module Soa = Peel_sim.Soa in
  let cs =
    Peel_workload.Spec.poisson_broadcasts k32 (Rng.create 100) ~n:6 ~scale:512
      ~bytes:(Common.mb 64.) ~load:0.3 ()
  in
  let flatten scheme () =
    Array.concat
      (List.map
         (fun c ->
           Peel_collective.Par.flatten k32
             (Peel_collective.Paths.create ~ecmp:true k32)
             ~chunks:8 scheme [ c ])
         cs)
  in
  let flows = flatten Peel_collective.Scheme.Btree () in
  let links = Soa.links_of_graph (Peel_topology.Fabric.graph k32) in
  let min_bytes =
    Array.fold_left (fun acc (f : Soa.flow) -> Float.min acc f.Soa.f_chunk_bytes) infinity flows
  in
  let plan () =
    Peel_sim.Shard.plan ~links ~sharding:(Soa.shard k32 ~jobs:1 ~min_bytes) flows
  in
  let built = plan () in
  ( [
      Test.make ~name:"par_flatten_k32_btree_6x512"
        (Staged.stage (fun () -> ignore (flatten Peel_collective.Scheme.Btree ())));
      Test.make ~name:"par_flatten_k32_peel_6x512"
        (Staged.stage (fun () -> ignore (flatten Peel_collective.Scheme.Peel ())));
      Test.make ~name:"shard_plan_k32_btree_6x512" (Staged.stage (fun () -> ignore (plan ())));
      Test.make ~name:shard_run_row
        (Staged.stage (fun () -> ignore (Peel_sim.Shard.run built)));
    ],
    built )

(* Minor words one [Shard.run] of [plan] allocates, averaged over five
   runs after a warm-up, and its event count: the per-run set-up
   against the per-event loop. *)
let shard_run_minor_words plan =
  let events = (Peel_sim.Shard.run plan).Peel_sim.Shard.r_events in
  let reps = 5 in
  let w0 = Gc.minor_words () in
  for _ = 1 to reps do
    ignore (Peel_sim.Shard.run plan)
  done;
  ((Gc.minor_words () -. w0) /. float_of_int reps, events)

(* One pod-local 512-GPU group (E19's 4 hosts x 8 GPUs per ToR): all of
   a k=32 pod, half of a k=64 one. *)
let pod_group fabric =
  let gpus = Peel_topology.Fabric.gpus fabric in
  (gpus.(0), List.init 511 (fun i -> gpus.(i + 1)))

(* Minor words one [Layer_peel.build] of [pod_group] allocates, averaged
   over five builds after a warm-up. *)
let peel_build_minor_words fabric =
  let g = Peel_topology.Fabric.graph fabric in
  let source, dests = pod_group fabric in
  ignore (Peel_steiner.Layer_peel.build g ~source ~dests);
  let reps = 5 in
  let w0 = Gc.minor_words () in
  for _ = 1 to reps do
    ignore (Peel_steiner.Layer_peel.build g ~source ~dests)
  done;
  (Gc.minor_words () -. w0) /. float_of_int reps

(* Rows that need no large fabric.  [run_micro] measures them before it
   builds the k=32 and k=64 fat-trees: a row that allocates pays
   major-GC work in proportion to the live heap, and with both fabrics
   live a microsecond row's estimate grew 4-7x and its r2 went
   negative (2-core x86-64 host). *)
let micro_tests () =
  let open Bechamel in
  let fabric = Common.fig5_fabric () in
  let g = Peel_topology.Fabric.graph fabric in
  let eps = Peel_topology.Fabric.endpoints fabric in
  let members = List.init 256 (fun i -> eps.(128 + i)) in
  let source = List.hd members in
  let dests = List.tl members in
  let rng = Rng.create 9 in
  let tor_targets = List.init 24 (fun _ -> Rng.int rng 64) |> List.sort_uniq compare in
  (* Serve-churn's shape: E20's leaf-spine (4 spines, 8 leaves of 4
     hosts) and one seeded 13-member group, as a flush plans it (budget
     1) and a membership delta bounds it. *)
  let ls = Peel_topology.Fabric.leaf_spine ~spines:4 ~leaves:8 ~hosts_per_leaf:4 () in
  let ls_source, ls_dests =
    let hosts = Peel_topology.Fabric.endpoints ls in
    match Rng.sample_without_replacement (Rng.create 3) (Array.length hosts) 13 with
    | s :: ds -> (hosts.(s), List.map (fun i -> hosts.(i)) ds)
    | [] -> assert false
  in
  [
    Test.make ~name:"layer_peel_tree_256_dests"
      (Staged.stage (fun () ->
           ignore (Peel_steiner.Layer_peel.build g ~source ~dests)));
    Test.make ~name:"symmetric_optimal_tree_256_dests"
      (Staged.stage (fun () ->
           ignore (Peel_steiner.Symmetric.build fabric ~source ~dests)));
    Test.make ~name:"peel_plan_256_dests"
      (Staged.stage (fun () -> ignore (Peel.Plan.build fabric ~source ~dests)));
    Test.make ~name:"peel_plan_ls4x8_b1_12_dests"
      (Staged.stage (fun () ->
           ignore (Peel.Plan.build ~budget:1 ls ~source:ls_source ~dests:ls_dests)));
    Test.make ~name:"symmetric_bound_ls4x8_12_dests"
      (Staged.stage (fun () ->
           ignore
             (Peel_check.Check_tree.symmetric_lower_bound ls ~source:ls_source
                ~dests:ls_dests)));
    (* 100 calls per run: a single cover call is too short for the fit
       to resolve on a busy host. *)
    Test.make ~name:"exact_cover_m6_24_targets_x100"
      (Staged.stage (fun () ->
           for _ = 1 to 100 do
             ignore (Peel_prefix.Cover.exact_cover ~m:6 tor_targets)
           done));
    Test.make ~name:"budgeted_cover_m6_b4_x100"
      (Staged.stage (fun () ->
           for _ = 1 to 100 do
             ignore (Peel_prefix.Cover.budgeted_cover ~m:6 ~budget:4 tor_targets)
           done));
    (* 1k installs into a full LRU table: every install pops the heap
       root and sifts the newcomer — the operation the old O(capacity)
       victim scan made linear. *)
    Test.make ~name:"tcam_evict_1k"
      (Staged.stage (fun () ->
           let t = Peel_ctrl.Tcam.create ~capacity:1024 ~policy:Peel_ctrl.Tcam.Lru in
           for g = 0 to 1023 do
             ignore
               (Peel_ctrl.Tcam.install t ~now:(float_of_int g) ~switch:0 ~group:g)
           done;
           for g = 1024 to 2047 do
             ignore
               (Peel_ctrl.Tcam.install t ~now:(float_of_int g) ~switch:0 ~group:g)
           done));
    Test.make ~name:"heap_push_pop_10k"
      (Staged.stage (fun () ->
           let h = Peel_util.Pairing_heap.create () in
           let prios = Lazy.force heap_priorities in
           Array.iteri (fun i p -> Peel_util.Pairing_heap.push h p i) prios;
           while not (Peel_util.Pairing_heap.is_empty h) do
             ignore (Peel_util.Pairing_heap.pop_min h)
           done));
    (* 10k events of E22's long-hold ramp from a fresh stream: group
       creates dominate, and the timer queue grows to ~30k entries. *)
    (let fabric = Exp_serve_scale.fabric () in
     let tenants = Exp_serve_scale.tenants () in
     Test.make ~name:"stream_next_ramp_10k"
       (Staged.stage (fun () ->
            let s =
              Peel_workload.Stream.create fabric
                (Rng.create Exp_serve_scale.seed) ~tenants ()
            in
            for _ = 1 to 10_000 do
              ignore (Peel_workload.Stream.next s)
            done)));
    Test.make ~name:"engine_10k_events_trace_off"
      (Staged.stage (engine_churn ~traced:false));
    Test.make ~name:"engine_10k_events_traced"
      (Staged.stage (engine_churn ~traced:true));
    engine_walker_row ();
  ]

(* Rows over the k=32 and k=64 fat-trees, and the rows that hold a large
   heap themselves. *)
let fabric_micro_tests ~k32 ~k64 ~stage_rows =
  let open Bechamel in
  [
    (let source, dests = pod_group k64 in
     let g = Peel_topology.Fabric.graph k64 in
     Test.make ~name:"layer_peel_k64_512_dests"
       (Staged.stage (fun () ->
            ignore (Peel_steiner.Layer_peel.build g ~source ~dests))));
    (* One fig6-style cell on a k=32 fat-tree (16384 GPUs), flattened
       and executed on the sharded engine end to end. *)
    (let cs =
       Peel_workload.Spec.poisson_broadcasts k32 (Rng.create 100) ~n:4
         ~scale:256 ~bytes:(Common.mb 64.) ~load:0.3 ()
     in
     Test.make ~name:"shard_k32_peel_256_dests"
       (Staged.stage (fun () ->
            ignore (Peel_collective.Par.run ~jobs:4 k32 Peel_collective.Scheme.Peel cs))));
  ]
  @ stage_rows
  @ List.map (fun e -> heap_hold_row ~pending:(1 lsl e)) [ 15; 18; 20 ]

(* Total extraction: every declared test element yields one row, even
   when Bechamel's analysis comes back empty for it — we look names up
   from [Test.elements] instead of folding over whatever keys the
   result table happens to hold. *)
let run_micro () =
  let open Bechamel in
  Common.banner "Micro-benchmarks (Bechamel): tree construction is cheap";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:2000 ~stabilize:true
      ~quota:(Time.second 0.5) ()
  in
  let measure tests =
    List.concat_map
      (fun test ->
        let raw = Benchmark.all cfg [ instance ] test in
        let analyzed = Analyze.all ols instance raw in
        List.map
          (fun elt ->
            let name = Test.Elt.name elt in
            let finite = function
              | Some x when Float.is_finite x -> Some x
              | _ -> None
            in
            match Hashtbl.find_opt analyzed name with
            | None -> (name, None, None)
            | Some ols_result ->
                ( name,
                  (match Analyze.OLS.estimates ols_result with
                  | Some (e :: _) -> finite (Some e)
                  | _ -> None),
                  finite (Analyze.OLS.r_square ols_result) ))
          (Test.elements test))
      tests
  in
  let small = measure (micro_tests ()) in
  let k32 = Peel_topology.Fabric.fat_tree ~k:32 ~hosts_per_tor:4 ~gpus_per_host:8 () in
  let k64 = Peel_topology.Fabric.fat_tree ~k:64 ~hosts_per_tor:4 ~gpus_per_host:8 () in
  let stage_rows, built = sim_scale_rows k32 in
  let results = small @ measure (fabric_micro_tests ~k32 ~k64 ~stage_rows) in
  Peel_util.Table.print ~header:[ "algorithm"; "time per run"; "r2" ]
    (Common.micro_table_rows results);
  let words, events = shard_run_minor_words built in
  Printf.printf "%s: %.0f minor words per run, %.4f per event (%d events)\n"
    shard_run_row words (words /. float_of_int events) events;
  let build_words =
    List.map
      (fun (name, fabric) ->
        let w = peel_build_minor_words fabric in
        Printf.printf "%s: %.0f minor words per Layer_peel.build\n" name w;
        (name, w))
      [ ("layer_peel_k32_512_dests", k32); ("layer_peel_k64_512_dests", k64) ]
  in
  (results, [ (shard_run_row, words /. float_of_int events) ], build_words)

(* ------------------------------------------------------------------ *)
(* BENCH.json: machine-readable run record                             *)
(* ------------------------------------------------------------------ *)

(* A cheap scheme comparison on the intro fabric so the JSON carries
   headline CCT numbers even when no CCT experiment was selected. *)
let headline_ccts () =
  let fabric = Common.fig1_fabric () in
  let open Peel_collective in
  List.map
    (fun scheme ->
      let cs =
        Peel_workload.Spec.poisson_broadcasts fabric (Rng.create 7) ~n:4
          ~scale:8 ~bytes:(Common.mb 8.0) ~load:0.3 ()
      in
      let s = Runner.summarize (Runner.run fabric scheme cs) in
      (Scheme.to_string scheme, s))
    Scheme.all

let headline_json headline =
  Json.Arr
    (List.map
       (fun (scheme, (s : Peel_util.Stats.summary)) ->
         Json.Obj
           [
             ("scheme", Json.str scheme);
             ("mean", Json.num s.Peel_util.Stats.mean);
             ("p50", Json.num s.Peel_util.Stats.p50);
             ("p99", Json.num s.Peel_util.Stats.p99);
             ("max", Json.num s.Peel_util.Stats.max);
           ])
       headline)

let mode_string = function Common.Quick -> "quick" | Common.Full -> "full"

let load_baseline () =
  if not (Sys.file_exists "BENCH.json") then None
  else
    let text = In_channel.with_open_text "BENCH.json" In_channel.input_all in
    match Json.parse text with Ok doc -> Some doc | Error _ -> None

(* The committed baseline is only comparable when it was produced at
   the same trial counts. *)
let baseline_wall_for baseline ~mode name =
  match baseline with
  | None -> None
  | Some doc -> (
      match Json.member "mode" doc with
      | Some (Json.Str m) when m = mode_string mode -> (
          match Option.bind (Json.member "experiments" doc) Json.get_arr with
          | None -> None
          | Some entries ->
              List.find_map
                (fun e ->
                  match (Json.member "name" e, Json.member "wall_s" e) with
                  | Some (Json.Str n), Some w when n = name -> Json.get_num w
                  | _ -> None)
                entries)
      | _ -> None)

let write_bench_json ~mode ~baseline ~exp_times ~micro:(micro, micro_words, build_words)
    ~headline ~failover
    ~refinement ~compile ~scale ~scale_speedup ~service ~service_slo
    ~serve_scale ~serve_scale_slo ~zoo ~total =
  let opt_num = function Some x -> Json.num x | None -> Json.Null in
  let experiment_entry (name, wall) =
    let speedup =
      match baseline_wall_for baseline ~mode name with
      | Some base when wall > 0.0 -> [ ("speedup_vs_baseline", Json.num (base /. wall)) ]
      | _ -> []
    in
    Json.Obj
      ([ ("name", Json.str name); ("wall_s", Json.num wall) ] @ speedup)
  in
  let baseline_total =
    match baseline with
    | Some doc
      when Json.member "mode" doc = Some (Json.Str (mode_string mode)) ->
        Option.bind (Json.member "total_wall_s" doc) Json.get_num
    | _ -> None
  in
  let doc =
    Json.Obj
      ([
         ("schema", Json.str "peel-bench/2");
         ("mode", Json.str (mode_string mode));
         ("jobs", Json.int (Pool.default_jobs ()));
         ("experiments", Json.Arr (List.map experiment_entry exp_times));
         ( "micro_ns_per_run",
           Json.Obj (List.map (fun (name, ns, _) -> (name, opt_num ns)) micro)
         );
         ( "micro_r2",
           Json.Obj (List.map (fun (name, _, r2) -> (name, opt_num r2)) micro)
         );
         ( "micro_minor_words_per_event",
           Json.Obj (List.map (fun (name, w) -> (name, Json.num w)) micro_words) );
         ( "micro_minor_words_per_build",
           Json.Obj (List.map (fun (name, w) -> (name, Json.num w)) build_words) );
         ("headline_cct", headline_json headline);
         ("failover_degradation", failover);
         ("refinement", refinement);
         ("compile", compile);
         ("scale", scale);
         ("scale_speedup", scale_speedup);
         ("service", service);
         ("service_slo", service_slo);
         ("serve_scale", serve_scale);
         ("serve_scale_slo", serve_scale_slo);
         ("zoo", zoo);
         ("total_wall_s", Json.num total);
       ]
      @
      match baseline_total with
      | Some t -> [ ("baseline_total_wall_s", Json.num t) ]
      | None -> [])
  in
  Out_channel.with_open_text "BENCH.json" (fun oc ->
      Out_channel.output_string oc (Json.to_string doc);
      Out_channel.output_char oc '\n')

(* ------------------------------------------------------------------ *)
(* guard: recompute the deterministic sections and diff the baseline   *)
(* ------------------------------------------------------------------ *)

(* Tolerance for float round-trips through the JSON writer; the
   simulation itself is bit-deterministic, so any genuine behaviour
   change drifts far beyond this. *)
let guard_tol = 1e-9

let json_kind = function
  | Json.Null -> "null"
  | Json.Bool _ -> "a boolean"
  | Json.Num _ -> "a number"
  | Json.Str _ -> "a string"
  | Json.Arr _ -> "an array"
  | Json.Obj _ -> "an object"

let rec json_drift path a b =
  match (a, b) with
  | Json.Null, Json.Null -> []
  | Json.Bool x, Json.Bool y ->
      if x = y then []
      else [ Printf.sprintf "%s: committed %b, recomputed %b" path x y ]
  | Json.Str x, Json.Str y ->
      if x = y then []
      else [ Printf.sprintf "%s: committed %S, recomputed %S" path x y ]
  | Json.Num x, Json.Num y ->
      let scale = Float.max 1.0 (Float.max (Float.abs x) (Float.abs y)) in
      if Float.abs (x -. y) <= guard_tol *. scale then []
      else [ Printf.sprintf "%s: committed %.17g, recomputed %.17g" path x y ]
  | Json.Arr xs, Json.Arr ys ->
      if List.length xs <> List.length ys then
        [
          Printf.sprintf "%s: committed %d entries, recomputed %d" path
            (List.length xs) (List.length ys);
        ]
      else
        List.concat
          (List.mapi
             (fun i (x, y) -> json_drift (Printf.sprintf "%s[%d]" path i) x y)
             (List.combine xs ys))
  | Json.Obj xs, Json.Obj ys ->
      if List.map fst xs <> List.map fst ys then
        [ Printf.sprintf "%s: object keys differ" path ]
      else
        List.concat
          (List.map2
             (fun (k, x) (_, y) -> json_drift (path ^ "." ^ k) x y)
             xs ys)
  | _ ->
      [
        Printf.sprintf "%s: JSON kinds differ: committed %s, recomputed %s" path
          (json_kind a) (json_kind b);
      ]

let guard_section name committed recomputed =
  match committed with
  | None ->
      Printf.printf "  %-22s MISSING in committed BENCH.json\n" name;
      1
  | Some c -> (
      match json_drift name c recomputed with
      | [] ->
          Printf.printf "  %-22s ok\n" name;
          0
      | drifts ->
          Printf.printf "  %-22s DRIFT (%d value(s)):\n" name
            (List.length drifts);
          List.iter (fun d -> Printf.printf "    %s\n" d) drifts;
          1)

(* A small fig5 sweep under 1 and 4 workers; the parallel fan-out
   contract says the rows must match exactly. *)
let guard_jobs_determinism () =
  let sweep jobs =
    Pool.set_default_jobs jobs;
    Exp_fig5.compute ~scales:64 Common.Quick [ 2.; 32. ]
  in
  let r1 = sweep 1 in
  let r4 = sweep 4 in
  Pool.set_default_jobs 1;
  if r1 = r4 then begin
    Printf.printf "  %-22s ok\n" "jobs 1 vs 4";
    0
  end
  else begin
    Printf.printf "  %-22s DRIFT: jobs=1 and jobs=4 rows differ\n"
      "jobs 1 vs 4";
    1
  end

let run_guard () =
  match load_baseline () with
  | None ->
      prerr_endline
        "bench guard: no parseable BENCH.json in the current directory";
      exit 2
  | Some doc ->
      Printf.printf "bench guard: recomputing deterministic sections\n";
      let headline =
        guard_section "headline_cct"
          (Json.member "headline_cct" doc)
          (headline_json (headline_ccts ()))
      in
      let failover =
        guard_section "failover_degradation"
          (Json.member "failover_degradation" doc)
          (Exp_failover.rows_json Common.Quick)
      in
      let refinement =
        guard_section "refinement"
          (Json.member "refinement" doc)
          (Exp_refine.rows_json Common.Quick)
      in
      let compile =
        guard_section "compile"
          (Json.member "compile" doc)
          (Exp_compile.rows_json Common.Quick)
      in
      (* The scale rows come off the sharded engine, whose results are
         jobs-invariant — so this section both guards E19 against drift
         and doubles as a determinism gate for the parallel DES.  The
         machine-dependent "scale_speedup" section is NOT guarded. *)
      let scale =
        guard_section "scale"
          (Json.member "scale" doc)
          (Exp_scale.rows_json Common.Quick)
      in
      (* The service rows fold delta re-peeling, sharded compiles and
         TCAM admission into one fingerprinted record; the wall-clock
         "service_slo" section is NOT guarded. *)
      let service =
        guard_section "service"
          (Json.member "service" doc)
          (Exp_service.rows_json Common.Quick)
      in
      (* The scale rows pin the arena-backed service's counters and all
         three replay fingerprints (jobs=1 / jobs=4 / cache-off) at the
         10^6-group cell; the wall-clock "serve_scale_slo" section —
         where the reference baseline runs — is NOT guarded. *)
      let serve_scale =
        guard_section "serve_scale"
          (Json.member "serve_scale" doc)
          (Exp_serve_scale.rows_json Common.Quick)
      in
      (* The zoo record folds the approximation ratios, the port-set
         rule accounting and the expander reconfiguration runs into one
         seeded, jobs-invariant object. *)
      let zoo =
        guard_section "zoo"
          (Json.member "zoo" doc)
          (Exp_zoo.rows_json Common.Quick)
      in
      let failures =
        headline + failover + refinement + compile + scale + service
        + serve_scale + zoo
        + guard_jobs_determinism ()
      in
      if failures > 0 then begin
        Printf.printf
          "bench guard: %d section(s) drifted from the committed BENCH.json\n"
          failures;
        exit 1
      end;
      Printf.printf "bench guard: all sections match the committed BENCH.json\n"

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let () =
  let rec split_jobs acc = function
    | [] -> (List.rev acc, None)
    | ("--jobs" | "-j") :: v :: rest -> (
        match int_of_string_opt v with
        | Some n when n >= 1 -> (List.rev_append acc rest, Some n)
        | _ ->
            Printf.eprintf "bad --jobs value: %s (want a positive integer)\n" v;
            exit 2)
    | [ ("--jobs" | "-j") ] ->
        prerr_endline "--jobs needs a value";
        exit 2
    | a :: rest -> split_jobs (a :: acc) rest
  in
  let args, jobs = split_jobs [] (List.tl (Array.to_list Sys.argv)) in
  Option.iter Pool.set_default_jobs jobs;
  if args = [ "guard" ] then run_guard ()
  else begin
    let quick = List.mem "quick" args in
    let mode = if quick then Common.Quick else Common.Full in
    let exp_names = List.map (fun (n, _, _) -> n) experiments in
    let selections = List.filter (fun a -> a <> "quick") args in
    let unknown =
      List.filter
        (fun a -> a <> "micro" && a <> "all" && not (List.mem a exp_names))
        selections
    in
    if unknown <> [] then begin
      Printf.eprintf "unknown experiment(s): %s\navailable: %s micro all quick guard\n"
        (String.concat " " unknown)
        (String.concat " " exp_names);
      exit 2
    end;
    let run_all = selections = [] || List.mem "all" selections in
    let wanted name = run_all || List.mem name selections in
    let baseline = load_baseline () in
    let t0 = Unix.gettimeofday () in
    Printf.printf "PEEL benchmark harness (%s mode, %d worker%s)\n"
      (mode_string mode) (Pool.default_jobs ())
      (if Pool.default_jobs () = 1 then "" else "s");
    let exp_times =
      List.filter_map
        (fun (name, _desc, f) ->
          if wanted name then begin
            let t = Unix.gettimeofday () in
            f mode;
            Some (name, Unix.gettimeofday () -. t)
          end
          else None)
        experiments
    in
    let micro =
      if run_all || List.mem "micro" selections then run_micro () else ([], [], [])
    in
    let headline = headline_ccts () in
    (* Always at Quick scale: a deterministic CCT-degradation record for
       PEEL and the baselines, regardless of which experiments ran. *)
    let failover = Exp_failover.rows_json Common.Quick in
    let refinement = Exp_refine.rows_json Common.Quick in
    let compile = Exp_compile.rows_json Common.Quick in
    let scale = Exp_scale.rows_json Common.Quick in
    let scale_speedup = Exp_scale.speedup_json Common.Quick in
    let service = Exp_service.rows_json Common.Quick in
    let service_slo = Exp_service.slo_json Common.Quick in
    let serve_scale = Exp_serve_scale.rows_json Common.Quick in
    let serve_scale_slo = Exp_serve_scale.slo_json Common.Quick in
    let zoo = Exp_zoo.rows_json Common.Quick in
    let total = Unix.gettimeofday () -. t0 in
    write_bench_json ~mode ~baseline ~exp_times ~micro ~headline ~failover
      ~refinement ~compile ~scale ~scale_speedup ~service ~service_slo
      ~serve_scale ~serve_scale_slo ~zoo ~total;
    Printf.printf "\ntotal wall time: %.1f s (BENCH.json written)\n" total
  end
