open Peel_topology
open Peel_workload
module Rng = Peel_util.Rng
module Json = Peel_util.Json
module Compile = Peel_compile.Compile
module Tcam = Peel_ctrl.Tcam

type row = {
  capacity : int;  (** per-switch TCAM entry budget *)
  batch : int;  (** groups offered (the arrival sequence length) *)
  exact_groups : int;  (** sustained by per-group exact installs *)
  dedup_groups : int;  (** sustained by compiled tables, dedup only *)
  agg_groups : int;  (** sustained with cross-group aggregation *)
  agg_max_entries : int;  (** busiest switch at the aggregated maximum *)
  agg_merges : int;  (** merges performed at that point *)
  agg_waste : int;  (** aggregation-induced waste rack slots *)
}

(* A 16-ary fat-tree kept light on endpoints: 8 ToRs/pod (3-bit ToR
   space), 16 pods (4-bit pod space), 512 GPUs. *)
let fabric () = Fabric.fat_tree ~k:16 ~hosts_per_tor:2 ~gpus_per_host:2 ()

(* Budgets start at 4: sound merging preserves the union of installed
   blocks exactly, and a maximally sparse 3-bit ToR table (alternating
   singletons, no complete sibling pair) bottoms out at 4 entries. *)
let batch_size = function Common.Quick -> 24 | Common.Full -> 64
let capacities = function Common.Quick -> [ 4; 8 ] | Common.Full -> [ 4; 6; 8; 12 ]

(* One seeded arrival sequence of fragmented 16-GPU groups, shared by
   every capacity cell. *)
let batch_for fabric mode =
  let rng = Rng.create 1800 in
  List.init (batch_size mode) (fun gid ->
      let members = Spec.place fabric rng ~scale:16 ~fragmentation:0.6 () in
      let source = List.hd members in
      let dests = List.filter (fun m -> m <> source) members in
      (gid, Peel.Plan.build fabric ~source ~dests))

(* Baseline: one exact entry per group per on-path switch (the §3.3
   refined stage generalized to a whole batch).  Logical switch ids:
   0 = core tier, 1+pod = that pod's aggregation tier.  Admission
   stops at the first group that no longer fits everywhere. *)
let exact_sustained fabric ~capacity batch =
  let tcam = Tcam.create ~capacity ~policy:Tcam.Lru in
  let rec admit count = function
    | [] -> count
    | (gid, (plan : Peel.Plan.t)) :: rest ->
        let entry =
          Peel.Dataplane.exact_entry fabric ~group:gid ~members:plan.Peel.Plan.dests
        in
        let switches =
          0
          :: List.map
               (fun (pod, _) -> 1 + pod)
               entry.Peel.Dataplane.agg_ports
        in
        let ok =
          List.for_all
            (fun switch ->
              Tcam.install_strict tcam ~now:0.0 ~switch ~group:gid)
            switches
        in
        if ok then admit (count + 1) rest else count
  in
  admit 0 batch

let prefix n l = List.filteri (fun i _ -> i < n) l

(* Largest batch prefix whose compiled tables fit the budget.  Dedup
   only grows tables, so the first over-budget prefix ends the scan;
   aggregation thrives on density (a fuller identifier space has more
   complete sibling pairs to collapse), so every prefix is tried and
   the best kept. *)
let dedup_sustained fabric ~capacity batch =
  let rec scan i best =
    if i > List.length batch then best
    else
      let t = Compile.compile ~capacity fabric (prefix i batch) in
      if Compile.fits t then scan (i + 1) i else best
  in
  scan 1 0

let agg_sustained fabric ~capacity batch =
  let n = List.length batch in
  let rec scan i best =
    if i > n then best
    else
      let t = Compile.compile ~capacity ~aggregate:true fabric (prefix i batch) in
      scan (i + 1) (if Compile.fits t then Some (i, t) else best)
  in
  match scan 1 None with
  | None -> (0, 0, 0, 0)
  | Some (i, t) ->
      let waste =
        List.fold_left
          (fun acc (gid, _) ->
            acc + List.length (Compile.group_waste fabric t ~group:gid))
          0 (prefix i batch)
      in
      (i, Compile.max_entries t, t.Compile.merges, waste)

let rows mode =
  let fabric = fabric () in
  let batch = batch_for fabric mode in
  let n = batch_size mode in
  Common.par_trials
    (fun capacity ->
      let exact_groups = exact_sustained fabric ~capacity batch in
      let dedup_groups = dedup_sustained fabric ~capacity batch in
      let agg_groups, agg_max_entries, agg_merges, agg_waste =
        agg_sustained fabric ~capacity batch
      in
      {
        capacity;
        batch = n;
        exact_groups;
        dedup_groups;
        agg_groups;
        agg_max_entries;
        agg_merges;
        agg_waste;
      })
    (capacities mode)

let rows_json mode =
  Json.Arr
    (List.map
       (fun r ->
         Json.Obj
           [
             ("tcam_capacity", Json.int r.capacity);
             ("batch", Json.int r.batch);
             ("exact_groups", Json.int r.exact_groups);
             ("dedup_groups", Json.int r.dedup_groups);
             ("agg_groups", Json.int r.agg_groups);
             ("agg_max_entries", Json.int r.agg_max_entries);
             ("agg_merges", Json.int r.agg_merges);
             ("agg_waste_racks", Json.int r.agg_waste);
           ])
       (rows mode))

let run mode =
  Common.note
    "512-GPU 16-ary fat-tree; fragmented 16-GPU groups; exact per-group \
     installs vs compiled (dedup) vs compiled + cross-group aggregation";
  let rs = rows mode in
  Peel_util.Table.print
    ~header:
      [ "tcam"; "offered"; "exact"; "dedup"; "agg"; "agg max"; "merges";
        "waste racks" ]
    (List.map
       (fun r ->
         [
           string_of_int r.capacity;
           string_of_int r.batch;
           string_of_int r.exact_groups;
           string_of_int r.dedup_groups;
           string_of_int r.agg_groups;
           string_of_int r.agg_max_entries;
           string_of_int r.agg_merges;
           string_of_int r.agg_waste;
         ])
       rs);
  Common.note
    "exact installs saturate the shared core tier at `tcam` groups; \
     deduped compiled tables share each static rule across every owner; \
     aggregation folds sibling/nested blocks to stay within budget, \
     paying waste racks instead of entries"
