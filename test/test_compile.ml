(* Tests for Peel_compile: the fleet-level rule compiler must lower any
   batch of plans into tables the static checker certifies, stay
   delivery-equivalent to the per-plan data plane, and catch each
   injected table corruption with the right CMP code.  Also pins the
   peel_cli 0/1/2 exit-code convention through the compile subcommand. *)

open Peel_topology
module D = Peel_check.Diagnostic
module Compile = Peel_compile.Compile
module Check_compile = Peel_compile.Check_compile
module Cover = Peel_prefix.Cover
module Plan = Peel.Plan
module Rng = Peel_util.Rng

let ft8 () = Fabric.fat_tree ~k:8 ~hosts_per_tor:2 ~gpus_per_host:2 ()
let ls () = Fabric.leaf_spine ~spines:4 ~leaves:8 ~hosts_per_leaf:2 ~gpus_per_host:2 ()

let batch_for fabric rng ~n ~scale =
  List.init n (fun gid ->
      let members =
        Peel_workload.Spec.place fabric rng ~scale ~fragmentation:0.5 ()
      in
      let source = List.hd members in
      let dests = List.filter (fun m -> m <> source) members in
      (gid, Peel.plan fabric ~source ~dests))

let member_racks fabric (plan : Plan.t) =
  List.sort_uniq compare
    (List.map (Fabric.attach_tor fabric) plan.Plan.dests)

let check_no_errors what ds =
  Alcotest.(check (list string))
    what []
    (List.map D.to_string (D.errors ds))

let check_code what code ds =
  Alcotest.(check bool) (what ^ " flags " ^ code) true (D.has_code code ds);
  Alcotest.(check bool) (what ^ " has errors") true (D.has_errors ds)

(* ------------------------------------------------------------------ *)
(* Clean compiles are certified and delivery-equivalent                *)
(* ------------------------------------------------------------------ *)

let test_clean_fat_tree () =
  let fabric = ft8 () in
  let batch = batch_for fabric (Rng.create 1) ~n:6 ~scale:24 in
  let t = Compile.compile fabric batch in
  check_no_errors "fat-tree compile" (Check_compile.check fabric t);
  Alcotest.(check bool) "fits without capacity" true (Compile.fits t)

let test_clean_leaf_spine () =
  let fabric = ls () in
  let batch = batch_for fabric (Rng.create 2) ~n:4 ~scale:12 in
  let t = Compile.compile fabric batch in
  check_no_errors "leaf-spine compile" (Check_compile.check fabric t);
  (* Single-pod fabrics never compile a core table. *)
  Alcotest.(check bool)
    "no core table" true
    (Compile.find_table t Compile.Core = None)

let test_clean_aggregated () =
  let fabric = ft8 () in
  let batch = batch_for fabric (Rng.create 3) ~n:8 ~scale:32 in
  let t = Compile.compile ~capacity:4 ~aggregate:true fabric batch in
  check_no_errors "aggregated compile" (Check_compile.check fabric t);
  Alcotest.(check bool) "fits the budget" true (Compile.fits t);
  Alcotest.(check bool) "capped at 4/switch" true (Compile.max_entries t <= 4);
  Alcotest.(check bool) "performed merges" true (t.Compile.merges > 0)

let test_exact_delivery_matches_plan () =
  let fabric = ft8 () in
  let batch = batch_for fabric (Rng.create 4) ~n:5 ~scale:16 in
  let t = Compile.compile fabric batch in
  List.iter
    (fun (gid, plan) ->
      (* Exact (unbudgeted) plans over-cover nothing, so the compiled
         tables must reach exactly the member racks. *)
      Alcotest.(check (list int))
        (Printf.sprintf "group %d racks" gid)
        (member_racks fabric plan)
        (Compile.deliver_group fabric t ~group:gid);
      Alcotest.(check (list int))
        (Printf.sprintf "group %d waste" gid)
        []
        (Compile.group_waste fabric t ~group:gid))
    batch

let test_aggregated_delivery_superset () =
  let fabric = ft8 () in
  let batch = batch_for fabric (Rng.create 5) ~n:8 ~scale:32 in
  let t = Compile.compile ~capacity:3 ~aggregate:true fabric batch in
  List.iter
    (fun (gid, plan) ->
      let reached = Compile.deliver_group fabric t ~group:gid in
      List.iter
        (fun r ->
          Alcotest.(check bool)
            (Printf.sprintf "group %d reaches rack %d" gid r)
            true (List.mem r reached))
        (member_racks fabric plan))
    batch

let test_dedup_shares_entries () =
  let fabric = ft8 () in
  let batch = batch_for fabric (Rng.create 6) ~n:1 ~scale:24 in
  let plan = List.assoc 0 batch in
  let solo = Compile.compile fabric [ (0, plan) ] in
  let dup = Compile.compile fabric [ (0, plan); (1, plan) ] in
  (* The same plan under a second group id adds zero entries... *)
  Alcotest.(check int)
    "identical plans share every entry"
    (Compile.total_entries solo) (Compile.total_entries dup);
  (* ...and every entry is co-owned by both groups. *)
  List.iter
    (fun (tb : Compile.table) ->
      List.iter
        (fun (e : Compile.entry) ->
          Alcotest.(check (list int))
            "both groups own the shared entry" [ 0; 1 ] e.Compile.owners)
        tb.Compile.entries)
    dup.Compile.tables

let test_compile_rejects_bad_input () =
  let fabric = ft8 () in
  let batch = batch_for fabric (Rng.create 7) ~n:1 ~scale:8 in
  let plan = List.assoc 0 batch in
  Alcotest.check_raises "duplicate group ids"
    (Invalid_argument "Compile.compile: duplicate group id 3") (fun () ->
      ignore (Compile.compile fabric [ (3, plan); (3, plan) ]));
  Alcotest.check_raises "capacity < 1"
    (Invalid_argument "Compile.compile: capacity must be >= 1") (fun () ->
      ignore (Compile.compile ~capacity:0 fabric [ (0, plan) ]))

let test_entry_bytes () =
  (* m=3: 3 value bits + 2 length bits -> 1 byte, 8-wide bitmap -> 1. *)
  Alcotest.(check int) "m=3 entry" 2 (Compile.entry_bytes ~m:3);
  (* m=6: 6+3 bits -> 2 bytes, 64-wide bitmap -> 8. *)
  Alcotest.(check int) "m=6 entry" 10 (Compile.entry_bytes ~m:6)

let test_checked_front_door () =
  let fabric = ft8 () in
  let batch = batch_for fabric (Rng.create 8) ~n:3 ~scale:16 in
  Unix.putenv "PEEL_CHECK" "1";
  Fun.protect
    ~finally:(fun () -> Unix.putenv "PEEL_CHECK" "0")
    (fun () ->
      (* A clean compile passes the boundary assertion... *)
      ignore (Peel_compile.compile ~capacity:4 ~aggregate:true fabric batch);
      (* ...and the assertion actually fires on corrupted findings. *)
      Alcotest.check_raises "assert_valid raises"
        (Failure
           "Peel_check: boom failed 1 invariant check(s):\n\
            error[CMP001] here: detail") (fun () ->
          Peel_check.assert_valid ~what:"boom"
            [ D.errorf ~code:"CMP001" ~loc:"here" "detail" ]))

(* ------------------------------------------------------------------ *)
(* Corruptions: one per CMP code                                       *)
(* ------------------------------------------------------------------ *)

let compiled_for_corruption seed =
  let fabric = ft8 () in
  let batch = batch_for fabric (Rng.create seed) ~n:6 ~scale:24 in
  (fabric, Compile.compile fabric batch)

let map_table n f (t : Compile.t) =
  { t with Compile.tables = List.mapi (fun i tb -> if i = n then f tb else tb) t.Compile.tables }

let map_entry n f (tb : Compile.table) =
  { tb with Compile.entries = List.mapi (fun i e -> if i = n then f e else e) tb.Compile.entries }

let test_corrupt_missing_entry () =
  let fabric, t = compiled_for_corruption 10 in
  (* Drop the last table's shortest-prefix entry: its headers have no
     installed ancestor, so those packets are dropped on the floor. *)
  let last = List.length t.Compile.tables - 1 in
  let t' =
    map_table last
      (fun tb ->
        {
          tb with
          Compile.entries =
            List.rev (List.tl (List.rev tb.Compile.entries));
        })
      t
  in
  check_code "missing entry" "CMP001" (Check_compile.check fabric t')

let test_corrupt_shadowed_rule () =
  let fabric, t = compiled_for_corruption 11 in
  let t' =
    map_table 0
      (fun tb ->
        { tb with Compile.entries = tb.Compile.entries @ [ List.hd tb.Compile.entries ] })
      t
  in
  check_code "duplicate entry" "CMP002" (Check_compile.check fabric t')

let test_corrupt_owner_record () =
  let fabric, t = compiled_for_corruption 12 in
  let t' =
    map_table 0 (map_entry 0 (fun e -> { e with Compile.owners = [ 999 ] })) t
  in
  check_code "tampered owners" "CMP002" (Check_compile.check fabric t')

let test_corrupt_conflicting_ports () =
  let fabric, t = compiled_for_corruption 13 in
  let t' =
    map_table 0
      (map_entry 0 (fun e -> { e with Compile.ports = List.tl e.Compile.ports }))
      t
  in
  check_code "tampered ports" "CMP003" (Check_compile.check fabric t')

let test_corrupt_out_of_space_prefix () =
  let fabric, t = compiled_for_corruption 14 in
  (* A prefix deeper than the table's id space: Rules.lookup's
     descriptive Invalid_argument surfaces as the CMP003 finding. *)
  let bad (tb : Compile.table) =
    map_entry 0
      (fun e ->
        {
          e with
          Compile.prefix = { Cover.value = 0; len = tb.Compile.id_bits + 1 };
        })
      tb
  in
  let t' = map_table 0 bad t in
  let ds = Check_compile.check fabric t' in
  check_code "out-of-space prefix" "CMP003" ds;
  let msg =
    List.find (fun d -> d.D.code = "CMP003") ds |> fun d -> d.D.message
  in
  Alcotest.(check bool)
    "error names the offending width" true
    (let sub = "outside the" in
     let rec has i =
       i + String.length sub <= String.length msg
       && (String.sub msg i (String.length sub) = sub || has (i + 1))
     in
     has 0)

let test_corrupt_over_budget () =
  let fabric, t = compiled_for_corruption 15 in
  let t' = { t with Compile.capacity = Some (Compile.max_entries t - 1) } in
  check_code "over budget" "CMP004" (Check_compile.check fabric t')

let test_corrupt_unsound_merge () =
  let fabric, t = compiled_for_corruption 16 in
  let t' = map_table 0 (map_entry 0 (fun e -> { e with Compile.sources = [] })) t in
  check_code "no sources" "CMP005" (Check_compile.check fabric t');
  (* A source outside the merged block is equally unsound. *)
  let deep (tb : Compile.table) =
    map_entry 0
      (fun e ->
        let m = tb.Compile.id_bits in
        let outside =
          { Cover.value = Peel_util.Bits.pow2 m - 1; len = m }
        in
        if Cover.is_ancestor e.Compile.prefix outside then e
        else { e with Compile.sources = [ outside ] })
      tb
  in
  let t'' = map_table 0 deep t in
  if t'' <> t then
    check_code "foreign source" "CMP005" (Check_compile.check fabric t'')

(* ------------------------------------------------------------------ *)
(* QCheck: compile . deliver == per-plan exact delivery                *)
(* ------------------------------------------------------------------ *)

let qcheck_differential =
  let fat = ft8 () in
  let spine = ls () in
  QCheck.Test.make ~name:"compile/deliver differential vs Dataplane" ~count:60
    QCheck.(
      quad (int_range 0 10_000) (int_range 1 5) (int_range 4 32) bool)
    (fun (seed, n, scale, aggregate) ->
      let fabric = if seed mod 2 = 0 then fat else spine in
      let scale = min scale (2 * scale) in
      let batch = batch_for fabric (Rng.create seed) ~n ~scale in
      let capacity = if aggregate then Some (4 + (seed mod 5)) else None in
      let t = Compile.compile ?capacity ~aggregate fabric batch in
      (* The compiler's own checker must certify every output... *)
      if D.has_errors (Check_compile.check fabric t) then false
      else
        (* ...and compiled delivery must cover per-plan exact delivery,
           exactly when unaggregated. *)
        List.for_all
          (fun (gid, (plan : Plan.t)) ->
            let exact =
              Peel.Dataplane.deliver_exact fabric
                (Peel.Dataplane.exact_entry fabric ~group:gid
                   ~members:plan.Plan.dests)
            in
            let reached = Compile.deliver_group fabric t ~group:gid in
            if aggregate then List.for_all (fun r -> List.mem r reached) exact
            else reached = exact)
          batch)

(* ------------------------------------------------------------------ *)
(* QCheck: the flush's entry counter against the compile it stands for *)
(* ------------------------------------------------------------------ *)

let counter_fabrics =
  lazy
    [|
      ls ();
      Fabric.fat_tree ~k:4 ~hosts_per_tor:2 ~gpus_per_host:2 ();
      ft8 ();
    |]

(* [n] groups of 2-16 members, as the service flush plans them. *)
let budgeted_batch fabric rng ~n ~budget ~fragmentation =
  List.init n (fun gid ->
      let scale = 2 + Rng.int rng 15 in
      match Peel_workload.Spec.place fabric rng ~scale ~fragmentation () with
      | source :: dests -> (gid, Plan.build ?budget fabric ~source ~dests)
      | [] -> assert false)

(* A count, or the [Invalid_argument] text it raised. *)
let outcome f = match f () with n -> Ok n | exception Invalid_argument msg -> Error msg

(* The flush's counter and the compile it stands for, on one batch. *)
let both_counts fabric batch =
  ( outcome (fun () -> Compile.count_entries fabric batch),
    outcome (fun () -> Compile.total_entries (Compile.compile fabric batch)) )

(* The batch with packet [i] (mod packets) of its last group passed
   through [f]. *)
let with_packet batch ~i f =
  let last = List.length batch - 1 in
  let corrupt (plan : Plan.t) =
    let at = i mod List.length plan.Plan.packets in
    let packets = List.mapi (fun j p -> if j = at then f p else p) plan.Plan.packets in
    { plan with Plan.packets }
  in
  List.mapi (fun j (gid, plan) -> (gid, if j = last then corrupt plan else plan)) batch

(* A prefix one bit longer than an [m]-bit id space allows. *)
let foreign m = { Cover.value = 0; len = m + 1 }

let prop_count_entries_matches_compile =
  QCheck.Test.make ~name:"count_entries = total_entries . compile" ~count:150
    QCheck.(
      quad (int_range 0 2) (int_range 0 10_000) (int_range 1 16)
        (triple (int_range 0 4) bool (int_range 0 63)))
    (fun (fi, seed, n, (budget, fragmented, i)) ->
      (* Shrinking can step below [int_range]'s lower bound. *)
      let n = max 1 n in
      let fabric = (Lazy.force counter_fabrics).(fi) in
      let budget = if budget = 0 then None else Some budget in
      let fragmentation = if fragmented then 0.5 else 0.0 in
      let batch =
        budgeted_batch fabric (Rng.create seed) ~n ~budget ~fragmentation
      in
      let agree ~ok b =
        let counted, compiled = both_counts fabric b in
        Result.is_ok counted = ok && counted = compiled
      in
      let dup_gid, _ = List.nth batch (i mod n) in
      let _, last = List.nth batch (n - 1) in
      agree ~ok:true batch
      && agree ~ok:false (batch @ [ (dup_gid, last) ])
      && agree ~ok:false
           (with_packet batch ~i (fun p ->
                { p with Plan.tor_prefix = foreign (Plan.tor_id_bits fabric) }))
      && agree ~ok:false
           (with_packet batch ~i (fun p ->
                { p with Plan.pod_prefix = Some (foreign (Plan.pod_id_bits fabric)) }))
      && agree ~ok:false
           (with_packet batch ~i (fun p -> { p with Plan.pods = -1 :: p.Plan.pods })))

(* ------------------------------------------------------------------ *)
(* CLI exit-code convention                                            *)
(* ------------------------------------------------------------------ *)

(* Resolve the binary from either cwd dune uses: _build/default/test
   under `dune runtest`, the workspace root under `dune exec`. *)
let cli_exe () =
  List.find_opt Sys.file_exists
    [ "../bin/peel_cli.exe"; "_build/default/bin/peel_cli.exe" ]

(* peel_cli documents 0 = ok, 1 = diagnosed errors, 2 = usage error on
   every subcommand; drive the compile subcommand through all three. *)
let test_cli_exit_codes () =
  match cli_exe () with
  | None -> Alcotest.skip ()
  | Some exe ->
    let code args = Sys.command (Filename.quote_command exe args ^ " >/dev/null 2>&1") in
    Alcotest.(check int) "clean compile exits 0" 0
      (code [ "compile"; "--quiet"; "-k"; "4"; "--scale"; "8"; "--groups"; "2" ]);
    Alcotest.(check int) "diagnosed corruption exits 1" 1
      (code
         [
           "compile"; "--quiet"; "-k"; "4"; "--scale"; "8"; "--groups"; "2";
           "--corrupt"; "cmp005";
         ]);
    Alcotest.(check int) "usage error exits 2" 2
      (code [ "compile"; "--corrupt"; "bogus" ]);
    Alcotest.(check int) "unknown option exits 2" 2
      (code [ "check"; "--no-such-flag" ]);
    (* Values the library rejects with [Invalid_argument] are usage
       errors too, not cmdliner's 125 "internal error". *)
    Alcotest.(check int) "zero prefix budget exits 2" 2
      (code [ "check"; "--budget"; "0" ]);
    Alcotest.(check int) "odd fat-tree degree exits 2" 2
      (code [ "plan"; "-k"; "7" ]);
    Alcotest.(check int) "registry experiment exits 0" 0
      (code [ "experiment"; "fig3"; "--quick" ]);
    Alcotest.(check int) "unknown experiment exits 2" 2
      (code [ "experiment"; "nosuch" ]);
    (* A failure fraction outside [0,1], NaN included, is a usage
       error on every flag that takes one, not "no failures"; so is a
       negative event count. *)
    List.iter
      (fun args ->
        Alcotest.(check int) (String.concat " " args ^ " exits 2") 2 (code args))
      [
        [ "plan"; "--failures"; "nan" ];
        [ "plan"; "--failures=-0.5" ];
        [ "check"; "--failures"; "nan" ];
        [ "check"; "--failures=-0.5" ];
        [ "zoo"; "--fail"; "nan" ];
        [ "zoo"; "--fail=-0.5" ];
        [ "serve"; "--events=-3" ];
      ]

(* The --help text renders cmdliner's markup instead of printing it. *)
let test_cli_help_markup () =
  match cli_exe () with
  | None -> Alcotest.skip ()
  | Some exe ->
      let out = Filename.temp_file "peel_help" ".txt" in
      let status =
        Sys.command
          (Filename.quote_command exe [ "experiment"; "--help=plain" ] ~stdout:out)
      in
      let text = In_channel.with_open_text out In_channel.input_all in
      Sys.remove out;
      let contains sub =
        let n = String.length sub in
        let rec at i =
          i + n <= String.length text && (String.sub text i n = sub || at (i + 1))
        in
        at 0
      in
      Alcotest.(check int) "help exits 0" 0 status;
      Alcotest.(check bool) "names PEEL_JOBS" true (contains "PEEL_JOBS");
      Alcotest.(check bool) "no raw $(b, markup" false (contains "$(b,")

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "peel_compile"
    [
      ( "clean",
        [
          Alcotest.test_case "fat-tree compile" `Quick test_clean_fat_tree;
          Alcotest.test_case "leaf-spine compile" `Quick test_clean_leaf_spine;
          Alcotest.test_case "aggregated compile" `Quick test_clean_aggregated;
          Alcotest.test_case "exact delivery" `Quick test_exact_delivery_matches_plan;
          Alcotest.test_case "aggregated superset" `Quick
            test_aggregated_delivery_superset;
          Alcotest.test_case "dedup shares entries" `Quick test_dedup_shares_entries;
          Alcotest.test_case "input validation" `Quick test_compile_rejects_bad_input;
          Alcotest.test_case "entry bytes" `Quick test_entry_bytes;
          Alcotest.test_case "PEEL_CHECK front door" `Quick test_checked_front_door;
        ] );
      ( "corruptions",
        [
          Alcotest.test_case "missing entry (CMP001)" `Quick test_corrupt_missing_entry;
          Alcotest.test_case "shadowed rule (CMP002)" `Quick test_corrupt_shadowed_rule;
          Alcotest.test_case "owner record (CMP002)" `Quick test_corrupt_owner_record;
          Alcotest.test_case "conflicting ports (CMP003)" `Quick
            test_corrupt_conflicting_ports;
          Alcotest.test_case "out-of-space prefix (CMP003)" `Quick
            test_corrupt_out_of_space_prefix;
          Alcotest.test_case "over budget (CMP004)" `Quick test_corrupt_over_budget;
          Alcotest.test_case "unsound merge (CMP005)" `Quick test_corrupt_unsound_merge;
        ] );
      ("differential", [ qt qcheck_differential; qt prop_count_entries_matches_compile ]);
      ( "cli",
        [
          Alcotest.test_case "exit codes 0/1/2" `Quick test_cli_exit_codes;
          Alcotest.test_case "help renders markup" `Quick test_cli_help_markup;
        ] );
    ]
