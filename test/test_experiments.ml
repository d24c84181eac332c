(* Tests for the experiment harness itself: the analytic experiments are
   cheap enough to verify their computed rows against the paper's
   qualitative claims directly; the simulation-heavy ones are covered by
   the bench run and the collective tests. *)

open Peel_experiments

(* E1 — Fig. 1 *)

let test_fig1_rows () =
  let rows = Exp_fig1.compute () in
  Alcotest.(check int) "3 schemes" 3 (List.length rows);
  let find s = List.find (fun r -> r.Exp_fig1.scheme = s) rows in
  let opt = find "optimal" and ring = find "ring" and tree = find "tree" in
  Alcotest.(check (float 1e-9)) "optimal overshoot 0" 0.0 opt.Exp_fig1.overshoot_pct;
  Alcotest.(check bool) "ring overshoots" true (ring.Exp_fig1.overshoot_pct > 0.0);
  Alcotest.(check bool) "tree overshoots more" true
    (tree.Exp_fig1.overshoot_pct > ring.Exp_fig1.overshoot_pct);
  Alcotest.(check bool) "tree core-heavy" true
    (tree.Exp_fig1.core_links > opt.Exp_fig1.core_links)

(* E2 — Fig. 3 *)

let test_fig3_rows () =
  let rows = Exp_fig3.compute () in
  Alcotest.(check int) "5 degrees" 5 (List.length rows);
  List.iter
    (fun r ->
      (* Within a row, stricter FPR always means a bigger header. *)
      let rec decreasing = function
        | (_, a) :: ((_, b) :: _ as rest) -> a > b && decreasing rest
        | _ -> true
      in
      Alcotest.(check bool) "header shrinks with laxer fpr" true
        (decreasing r.Exp_fig3.by_fpr);
      Alcotest.(check bool) "peel header tiny" true (r.Exp_fig3.peel_bytes <= 2))
    rows;
  (* The paper's crossing: at 20% FPR, k=64 exceeds the MTU. *)
  let k64 = List.find (fun r -> r.Exp_fig3.k = 64) rows in
  let _, bytes20 = List.nth k64.Exp_fig3.by_fpr 4 in
  Alcotest.(check bool) "k=64 over MTU at 20%" true (bytes20 > 1500.0)

(* E7 — state table *)

let test_state_rows () =
  let rows = Exp_state.compute () in
  let k64 = List.find (fun r -> r.Exp_state.k = 64) rows in
  Alcotest.(check int) "63 rules" 63 k64.Exp_state.peel_rules;
  Alcotest.(check int) "65536 hosts" 65536 k64.Exp_state.hosts;
  Alcotest.(check bool) "naive > 4e9" true (k64.Exp_state.naive_entries > 4e9);
  List.iter
    (fun r ->
      Alcotest.(check bool) "header under 8 B" true (r.Exp_state.header_bytes < 8);
      Alcotest.(check int) "rules = k-1" (r.Exp_state.k - 1) r.Exp_state.peel_rules)
    rows

(* E9 — bandwidth accounting *)

let test_approx_bandwidth () =
  let bw = Exp_approx.compute_bandwidth () in
  Alcotest.(check bool) "peel uses fewer traversals" true
    (bw.Exp_approx.peel_traversals < bw.Exp_approx.ring_traversals);
  Alcotest.(check bool) "positive savings" true (bw.Exp_approx.savings_pct > 0.0)

(* E14 — tenancy accounting (quick mode: up to 1000 groups) *)

let test_tenancy_rows () =
  let rows = Exp_tenancy.compute Common.Quick in
  let rec increasing = function
    | a :: (b :: _ as rest) ->
        a.Exp_tenancy.ipmc_max_entries <= b.Exp_tenancy.ipmc_max_entries
        && increasing rest
    | _ -> true
  in
  Alcotest.(check bool) "ipmc grows with groups" true (increasing rows);
  List.iter
    (fun r ->
      Alcotest.(check int) "peel constant" 7 r.Exp_tenancy.peel_entries)
    rows

(* Modes *)

let test_trials_scaling () =
  Alcotest.(check int) "full" 40 (Common.trials Common.Full ~full:40);
  Alcotest.(check int) "quick" 5 (Common.trials Common.Quick ~full:40);
  Alcotest.(check int) "quick floor" 4 (Common.trials Common.Quick ~full:8)

(* Parallel sweep determinism: the fig5 sweep fanned out over 4 worker
   domains must produce the exact rows of the sequential (jobs = 1)
   sweep — same order, bit-equal floats. *)

let test_fig5_jobs_deterministic () =
  let sweep jobs =
    Peel_util.Pool.set_default_jobs jobs;
    Exp_fig5.compute ~scales:64 Common.Quick [ 2.; 32. ]
  in
  let seq = sweep 1 in
  let par = sweep 4 in
  Peel_util.Pool.set_default_jobs 1;
  Alcotest.(check int) "row count" (List.length seq) (List.length par);
  List.iter2
    (fun (a : Exp_fig5.row) (b : Exp_fig5.row) ->
      Alcotest.(check bool)
        (Printf.sprintf "row %.0fMB/%s bit-equal" a.Exp_fig5.size_mb
           (Peel_collective.Scheme.to_string a.Exp_fig5.scheme))
        true (a = b))
    seq par

(* Micro-benchmark table formatting: total over its input — a missing
   or non-finite estimate must still yield a row, never drop one. *)

let test_micro_table_rows () =
  let rows =
    Common.micro_table_rows
      [
        ("fast", Some 150.0, Some 0.9987);   (* 150 ns *)
        ("slow", Some 2.5e9, Some 0.9);      (* 2.5 s, r² at the floor *)
        ("noisy", Some 3000.0, Some 0.8994); (* below the floor *)
        ("failed", None, None);
        ("diverged", Some nan, Some nan);
        ("overflowed", Some infinity, Some neg_infinity);
      ]
  in
  Alcotest.(check int) "one row per input" 6 (List.length rows);
  Alcotest.(check (list (list string)))
    "formatting"
    [
      [ "fast"; "150.0 ns"; "0.999" ];
      [ "slow"; "2.500 s"; "0.900" ];
      [ "noisy"; "3.0 us"; "0.899 low" ];
      [ "failed"; "n/a"; "n/a" ];
      [ "diverged"; "n/a"; "n/a" ];
      [ "overflowed"; "n/a"; "n/a" ];
    ]
    rows

(* The registry is the one list bench and peel_cli read: every id once
   and in order, every name reachable (none shadowed by a bench command
   word), every BENCH.json key written once, and the guarded set is the
   committed one. *)

let test_registry () =
  let ids = List.map (fun (e : Registry.entry) -> e.id) Registry.all in
  Alcotest.(check (list string))
    "E1..E22 in order"
    (List.init 22 (fun i -> Printf.sprintf "E%d" (i + 1)))
    ids;
  let names = List.map (fun (e : Registry.entry) -> e.name) Registry.all in
  Alcotest.(check int)
    "names unique" (List.length names)
    (List.length (List.sort_uniq compare names));
  List.iter
    (fun word ->
      Alcotest.(check bool) (word ^ " is not an experiment name") false
        (List.mem word names))
    [ "all"; "micro"; "quick"; "guard" ];
  let sections = List.concat_map (fun (e : Registry.entry) -> e.sections) Registry.all in
  let keys = List.map (fun (s : Registry.section) -> s.key) sections in
  Alcotest.(check int)
    "section keys unique" (List.length keys)
    (List.length (List.sort_uniq compare keys));
  Alcotest.(check (list string))
    "guarded sections"
    (List.sort compare
       [
         "headline_cct"; "failover_degradation"; "refinement"; "compile";
         "scale"; "service"; "zoo"; "serve_scale";
       ])
    (List.sort compare
       (List.filter_map
          (fun (s : Registry.section) -> if s.guarded then Some s.key else None)
          sections))

(* README's bench table has a row for every registry experiment, so a
   new entry cannot ship without one. *)
let test_readme_rows () =
  let candidates = [ "../README.md"; "README.md" ] in
  match List.find_opt Sys.file_exists candidates with
  | None -> Alcotest.fail "README.md not found"
  | Some path ->
      let lines = In_channel.with_open_text path In_channel.input_lines in
      List.iter
        (fun (e : Registry.entry) ->
          let row = Printf.sprintf "| `%s` |" e.name in
          Alcotest.(check bool)
            (e.id ^ " " ^ e.name ^ " has a README row")
            true
            (List.exists (String.starts_with ~prefix:row) lines))
        Registry.all

let () =
  Alcotest.run "peel_experiments"
    [
      ( "analytic",
        [
          Alcotest.test_case "fig1 rows" `Quick test_fig1_rows;
          Alcotest.test_case "fig3 rows" `Quick test_fig3_rows;
          Alcotest.test_case "state rows" `Quick test_state_rows;
          Alcotest.test_case "approx bandwidth" `Quick test_approx_bandwidth;
          Alcotest.test_case "tenancy rows" `Slow test_tenancy_rows;
          Alcotest.test_case "trials scaling" `Quick test_trials_scaling;
          Alcotest.test_case "fig5 jobs deterministic" `Slow
            test_fig5_jobs_deterministic;
          Alcotest.test_case "micro table rows" `Quick test_micro_table_rows;
        ] );
      ( "registry",
        [
          Alcotest.test_case "one entry per experiment" `Quick test_registry;
          Alcotest.test_case "README row per experiment" `Quick test_readme_rows;
        ] );
    ]
