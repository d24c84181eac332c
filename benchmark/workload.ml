(* What every workload provides, and the metric dictionary.

   A workload is set up once per process (fabric, stream or spec, link
   tables), then runs identical {e units} of work back to back.  Every
   unit of one seed produces the same outputs, so each unit's digest
   is compared with the first. *)

type size = Smoke | Bench | Full

let size_to_string = function Smoke -> "smoke" | Bench -> "bench" | Full -> "full"

let size_of_string = function
  | "smoke" -> Some Smoke
  | "bench" -> Some Bench
  | "full" -> Some Full
  | _ -> None

(* One unit's results.  [wall_s] covers only the timed call into the
   program; [check] runs the post-run lints and returns one line per
   finding. *)
type outcome = {
  ops : int;
  wall_s : float;
  digest : string;
  sends : int;
  link_bytes : float;
  check : unit -> string list;
}

(* A per-layer measurement: value, unit, and how many calls it rests on. *)
type layer = { l_name : string; l_value : float; l_calls : int }

let layer l_name l_value l_calls = { l_name; l_value; l_calls }

type instance = {
  run_unit : unit -> outcome;
  traced : Spans.t -> root:int -> outcome * layer list;
      (** one unit with the layer probes around it *)
}

type t = {
  name : string;
  why : string;
  pins : (size * string) list;
      (** digest of seed 0 at each size: outputs that must not drift *)
  setup : size -> seed:int -> jobs:int -> instance;
}

type better = Higher | Lower

let better_to_string = function Higher -> "higher" | Lower -> "lower"

(* The dictionary; README.md says what each metric measures. *)
type metric = { m_name : string; m_unit : string; m_better : better }

let m m_name m_unit m_better = { m_name; m_unit; m_better }

(* End-to-end metrics, reported by every workload from untraced runs.
   An operation is one stream event (the serve workloads) or one
   collective taken from plan to completion time (the sim workloads);
   a send is one Send event or one PEEL broadcast. *)
let end_to_end =
  [
    m "ops_per_s" "1/s" Higher;
    m "setup_s" "s" Lower;
    m "live_heap_mb" "MB" Lower;
    m "link_mb_per_send" "MB" Lower;
  ]

(* Per-layer metrics, reported by the traced run.  A workload that does
   not exercise a layer reports it as 0 with 0 calls. *)
let per_layer =
  [
    m "workload.stream.next_ns" "ns" Lower;
    m "ctrl.service.minor_words_per_event" "words" Lower;
    m "ctrl.group_table.add_ns" "ns" Lower;
    m "ctrl.group_table.live" "count" Higher;
    m "steiner.memo.hit_ratio" "ratio" Higher;
    m "steiner.memo.misses" "count" Lower;
    m "steiner.layer_peel.build_ns" "ns" Lower;
    m "steiner.layer_peel.build_calls" "count" Lower;
    m "steiner.layer_peel.splice_ns" "ns" Lower;
    m "steiner.splice.accept_ratio" "ratio" Higher;
    m "check.check_tree.bound_ns" "ns" Lower;
    m "core.plan.build_ns" "ns" Lower;
    m "compile.count_entries_ns" "ns" Lower;
    m "ctrl.tcam.install_ns" "ns" Lower;
    m "ctrl.tcam.installs" "count" Lower;
    m "ctrl.tcam.evict_ratio" "ratio" Lower;
    m "util.pool.par_map_ns" "ns" Lower;
    m "util.pool.fanout_share" "ratio" Lower;
    m "ctrl.service.plan_p99_us" "us" Lower;
    m "ctrl.service.batches" "count" Lower;
    m "ctrl.service.max_backlog" "count" Lower;
    m "ctrl.service.multicast_share" "ratio" Higher;
    m "ctrl.service.unattributed_share" "ratio" Lower;
    m "collective.par.flatten_s" "s" Lower;
    m "collective.paths.bfs_ns" "ns" Lower;
    m "collective.cct_p50_ms" "ms" Lower;
    m "collective.cct_p99_ms" "ms" Lower;
    m "sim.shard.plan_s" "s" Lower;
    m "sim.shard.run_s" "s" Lower;
    m "sim.shard.events" "count" Lower;
    m "sim.shard.windows" "count" Lower;
    m "sim.shard.window_parallelism" "ratio" Higher;
    m "sim.engine.events" "count" Lower;
    m "sim.engine.max_pending" "count" Lower;
    m "sim.engine.ns_per_event" "ns" Lower;
    m "sim.link.reservations" "count" Lower;
    m "sim.link.ecn_marks" "count" Lower;
    m "sim.dcqcn.cnps" "count" Lower;
    m "sim.dcqcn.rate_cuts" "count" Lower;
    m "sim.runner.minor_words_per_event" "words" Lower;
    m "sim.trace.overhead_share" "ratio" Lower;
  ]

let unit_of name =
  match List.find_opt (fun x -> x.m_name = name) (end_to_end @ per_layer) with
  | Some x -> x.m_unit
  | None -> "?"
