type section = {
  key : string;
  guarded : bool;
  json : unit -> Peel_util.Json.t;
}

type entry = {
  id : string;
  name : string;
  title : string;
  run : Common.mode -> unit;
  sections : section list;
}

let section ~guarded key json =
  { key; guarded; json = (fun () -> json Common.Quick) }

let entry ?(sections = []) id name title run =
  {
    id;
    name;
    title;
    run =
      (fun mode ->
        Common.banner title;
        run mode);
    sections;
  }

let all =
  [
    entry "E1" "fig1" "E1 / Figure 1: Broadcast bandwidth, Ring vs Tree vs Optimal"
      Exp_fig1.run
      ~sections:
        [
          section ~guarded:true "headline_cct" (fun _ -> Exp_fig1.headline_json ());
        ];
    entry "E2" "fig3" "E2 / Figure 3: RSBF Bloom-filter header size vs fat-tree degree"
      Exp_fig3.run;
    entry "E3" "fig4" "E3 / Figure 4: Orca controller-overhead CCT inflation" Exp_fig4.run;
    entry "E4" "fig5" "E4 / Figure 5: CCT vs message size (512-GPU Broadcast, 30% load)"
      Exp_fig5.run;
    entry "E5" "fig6" "E5 / Figure 6: CCT vs scale (64 MB messages, 30% load)" Exp_fig6.run;
    entry "E6" "fig7" "E6 / Figure 7: robustness to failures (asymmetric leaf-spine)"
      Exp_fig7.run;
    entry "E7" "state" "E7: switch state and header size vs fat-tree degree" Exp_state.run;
    (* Not "guard": [bench guard] is the drift check. *)
    entry "E8" "guard-timer" "E8: DCQCN multicast guard timer (64-GPU, 32 MB, 60% load)"
      Exp_guard.run;
    entry "E9" "approx" "E9: greedy tree quality and aggregate bandwidth" Exp_approx.run;
    entry "E10" "frag" "E10: placement fragmentation vs prefix aggregation (§3.4)"
      Exp_frag.run;
    entry "E11" "collectives" "E11 (ext): PEEL inside allgather / reduce / allreduce"
      Exp_collectives.run;
    entry "E12" "multipath" "E12 (ext): multicast vs multipath (§2.3 open question)"
      Exp_multipath.run;
    entry "E13" "loss" "E13 (ext): chunk loss and selective-repeat recovery" Exp_loss.run;
    entry "E14" "tenancy" "E14 (ext): concurrent jobs vs switch TCAM (the §1 motivation)"
      Exp_tenancy.run;
    entry "E15" "rail" "E15 (ext): rail-optimized fabric (§2.1 future work)" Exp_rail.run;
    entry "E16" "failover" "E16 (ext): mid-run link failure and controller re-peeling"
      Exp_failover.run
      ~sections:[ section ~guarded:true "failover_degradation" Exp_failover.rows_json ];
    entry "E17" "refine" "E17: two-stage refinement vs. install latency and TCAM budget"
      Exp_refine.run
      ~sections:[ section ~guarded:true "refinement" Exp_refine.rows_json ];
    entry "E18" "compile" "E18: rule compiler — concurrent groups sustained per TCAM budget"
      Exp_compile.run
      ~sections:[ section ~guarded:true "compile" Exp_compile.rows_json ];
    (* The scale rows come off the sharded engine, whose results are
       jobs-invariant, so this section both guards E19 against drift
       and doubles as a determinism gate for the parallel DES.  The
       machine-dependent "scale_speedup" section is not guarded. *)
    entry "E19" "scale"
      "E19: sharded-engine scale sweep (fat-trees beyond fig6, 512-GPU groups, 64 MB)"
      Exp_scale.run
      ~sections:
        [
          section ~guarded:true "scale" Exp_scale.rows_json;
          section ~guarded:false "scale_speedup" Exp_scale.speedup_json;
        ];
    (* The service rows fold delta re-peeling, sharded compiles and TCAM
       admission into one fingerprinted record; the wall-clock
       "service_slo" section is not guarded. *)
    entry "E20" "service" "E20: open-loop multicast-as-a-service control plane"
      Exp_service.run
      ~sections:
        [
          section ~guarded:true "service" Exp_service.rows_json;
          section ~guarded:false "service_slo" Exp_service.slo_json;
        ];
    (* The zoo record folds the approximation ratios, the port-set rule
       accounting and the expander reconfiguration runs into one seeded,
       jobs-invariant object. *)
    entry "E21" "zoo" "E21 (ext): topology zoo vs the exact-Steiner oracle" Exp_zoo.run
      ~sections:[ section ~guarded:true "zoo" Exp_zoo.rows_json ];
    (* The rows pin the slot-table service's counters and both replay
       fingerprints (cached / cache-off) at the 10^6-group cell; the
       wall-clock "serve_scale_slo" section, where the reference
       baseline runs, is not guarded. *)
    entry "E22" "serve-scale" "E22: million-group service fast path" Exp_serve_scale.run
      ~sections:
        [
          section ~guarded:true "serve_scale" Exp_serve_scale.rows_json;
          section ~guarded:false "serve_scale_slo" Exp_serve_scale.slo_json;
        ];
  ]
