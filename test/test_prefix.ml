(* Tests for peel_prefix: power-of-two cover sets (paper §3.2), wire
   header encoding, static TCAM rule tables, and state accounting. *)

open Peel_prefix
module Rng = Peel_util.Rng

let prefix value len = { Cover.value; len }

(* ------------------------------------------------------------------ *)
(* Cover: basics                                                       *)
(* ------------------------------------------------------------------ *)

let test_block_size () =
  Alcotest.(check int) "whole pod" 8 (Cover.block_size ~m:3 (prefix 0 0));
  Alcotest.(check int) "half" 4 (Cover.block_size ~m:3 (prefix 1 1));
  Alcotest.(check int) "single" 1 (Cover.block_size ~m:3 (prefix 5 3))

let test_covers () =
  (* 1** covers 4..7 in a 3-bit space. *)
  let p = prefix 1 1 in
  List.iter
    (fun id ->
      Alcotest.(check bool) (Printf.sprintf "1** covers %d" id) (id >= 4)
        (Cover.covers ~m:3 p id))
    [ 0; 1; 2; 3; 4; 5; 6; 7 ]

let test_expand () =
  Alcotest.(check (list int)) "01*" [ 2; 3 ] (Cover.expand ~m:3 (prefix 1 2));
  Alcotest.(check (list int)) "whole" [ 0; 1; 2; 3 ] (Cover.expand ~m:2 (prefix 0 0))

let test_to_string () =
  Alcotest.(check string) "1**" "1**" (Cover.to_string ~m:3 (prefix 1 1));
  Alcotest.(check string) "01*" "01*" (Cover.to_string ~m:3 (prefix 1 2));
  Alcotest.(check string) "101" "101" (Cover.to_string ~m:3 (prefix 5 3));
  Alcotest.(check string) "***" "***" (Cover.to_string ~m:3 (prefix 0 0))

let test_validate_rejects () =
  Alcotest.(check bool) "len too long" true
    (try Cover.validate ~m:3 (prefix 0 4); false with Invalid_argument _ -> true);
  Alcotest.(check bool) "value too big" true
    (try Cover.validate ~m:3 (prefix 2 1); false with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Cover: exact decomposition                                          *)
(* ------------------------------------------------------------------ *)

let test_exact_cover_paper_example () =
  (* Paper §3.2: ToRs 010,011,100,101,110,111 in an 8-ary pod ->
     prefixes 1** and 01*. *)
  let cover = Cover.exact_cover ~m:3 [ 2; 3; 4; 5; 6; 7 ] in
  let rendered = List.map (Cover.to_string ~m:3) cover in
  Alcotest.(check (list string)) "paper cover" [ "01*"; "1**" ] rendered

let test_exact_cover_everything () =
  Alcotest.(check (list string)) "all tors = 1 prefix" [ "***" ]
    (List.map (Cover.to_string ~m:3) (Cover.exact_cover ~m:3 [ 0; 1; 2; 3; 4; 5; 6; 7 ]))

let test_exact_cover_empty () =
  Alcotest.(check int) "empty" 0 (List.length (Cover.exact_cover ~m:3 []))

let test_exact_cover_singleton () =
  Alcotest.(check (list string)) "single tor" [ "101" ]
    (List.map (Cover.to_string ~m:3) (Cover.exact_cover ~m:3 [ 5 ]))

let test_exact_cover_worst_case_fragmentation () =
  (* Alternating ids defeat aggregation completely: every other ToR. *)
  let targets = [ 0; 2; 4; 6 ] in
  let cover = Cover.exact_cover ~m:3 targets in
  Alcotest.(check int) "4 prefixes" 4 (List.length cover);
  Alcotest.(check bool) "exact" true
    (Cover.covered_set ~m:3 cover = List.sort compare targets)

let test_exact_cover_duplicates_ignored () =
  Alcotest.(check (list string)) "dups" [ "01*" ]
    (List.map (Cover.to_string ~m:3) (Cover.exact_cover ~m:3 [ 2; 3; 3; 2 ]))

let prop_exact_cover_exact =
  QCheck.Test.make ~name:"exact_cover covers targets exactly" ~count:200
    QCheck.(pair (int_range 1 6) (list small_nat))
    (fun (m, raw) ->
      let size = 1 lsl m in
      let targets = List.sort_uniq compare (List.map (fun x -> x mod size) raw) in
      let cover = Cover.exact_cover ~m targets in
      Cover.covered_set ~m cover = targets
      && Cover.over_coverage ~m cover ~targets = 0)

let prop_exact_cover_disjoint =
  QCheck.Test.make ~name:"exact_cover blocks are disjoint" ~count:200
    QCheck.(pair (int_range 1 6) (list small_nat))
    (fun (m, raw) ->
      let size = 1 lsl m in
      let targets = List.sort_uniq compare (List.map (fun x -> x mod size) raw) in
      let cover = Cover.exact_cover ~m targets in
      let all = List.concat_map (Cover.expand ~m) cover in
      List.length all = List.length (List.sort_uniq compare all))

let prop_exact_cover_minimal_vs_merging =
  (* Canonical decomposition is minimal among exact covers: no two
     blocks in the result can be merged into a bigger aligned block. *)
  QCheck.Test.make ~name:"exact_cover has no mergeable siblings" ~count:200
    QCheck.(pair (int_range 1 6) (list small_nat))
    (fun (m, raw) ->
      let size = 1 lsl m in
      let targets = List.sort_uniq compare (List.map (fun x -> x mod size) raw) in
      let cover = Cover.exact_cover ~m targets in
      List.for_all
        (fun p ->
          p.Cover.len = 0
          || not
               (List.exists
                  (fun q ->
                    q.Cover.len = p.Cover.len
                    && q.Cover.value = p.Cover.value lxor 1
                    && q.Cover.value / 2 = p.Cover.value / 2)
                  cover))
        cover)

(* Property-style sweep driven by the repo's own seeded PRNG: for
   random target sets, the exact cover must be disjoint, exact (covers
   the targets and nothing else) and minimal.  Minimality is checked
   against a brute-force search over every prefix subset at small m,
   and against the no-mergeable-siblings criterion at larger m. *)
let test_exact_cover_random_sweep () =
  let rng = Rng.create 2025 in
  for trial = 1 to 200 do
    let m = Rng.int_in rng 1 6 in
    let size = 1 lsl m in
    let k = Rng.int_in rng 0 size in
    let targets = Rng.sample_without_replacement rng size k in
    let cover = Cover.exact_cover ~m targets in
    let name fmt = Printf.sprintf ("trial %d (m=%d): " ^^ fmt) trial m in
    (* Exact: the union of blocks is the target set, no over-coverage. *)
    Alcotest.(check (list int)) (name "exact") targets (Cover.covered_set ~m cover);
    Alcotest.(check int)
      (name "no over-coverage")
      0
      (Cover.over_coverage ~m cover ~targets);
    (* Disjoint: expanding the blocks yields no duplicate identifier. *)
    let all = List.concat_map (Cover.expand ~m) cover in
    Alcotest.(check int)
      (name "disjoint")
      (List.length all)
      (List.length (List.sort_uniq compare all));
    (* Minimal: no two sibling blocks could merge into the parent. *)
    List.iter
      (fun p ->
        if p.Cover.len > 0 then
          Alcotest.(check bool)
            (name "no mergeable siblings")
            false
            (List.mem { Cover.value = p.Cover.value lxor 1; len = p.Cover.len } cover))
      cover;
    (* Minimal, independently: brute force at small m. *)
    if m <= 3 && targets <> [] then begin
      let all_prefixes =
        List.concat
          (List.init (m + 1) (fun len ->
               List.init (1 lsl len) (fun value -> { Cover.value; len })))
      in
      let arr = Array.of_list all_prefixes in
      let np = Array.length arr in
      let best = ref max_int in
      for mask = 1 to (1 lsl np) - 1 do
        let subset = ref [] in
        for i = 0 to np - 1 do
          if mask land (1 lsl i) <> 0 then subset := arr.(i) :: !subset
        done;
        if
          Cover.is_cover ~m !subset ~targets
          && Cover.over_coverage ~m !subset ~targets = 0
        then best := min !best (List.length !subset)
      done;
      Alcotest.(check int) (name "minimal (brute force)") !best (List.length cover)
    end
  done

(* ------------------------------------------------------------------ *)
(* Cover: budgeted decomposition                                       *)
(* ------------------------------------------------------------------ *)

let test_budgeted_equals_exact_when_budget_ample () =
  let targets = [ 0; 2; 4; 6 ] in
  let exact = Cover.exact_cover ~m:3 targets in
  let budgeted = Cover.budgeted_cover ~m:3 ~budget:8 targets in
  Alcotest.(check int) "same overcoverage" 0
    (Cover.over_coverage ~m:3 budgeted ~targets);
  Alcotest.(check int) "same count" (List.length exact) (List.length budgeted)

let test_budgeted_tight_budget_overcovers () =
  (* 4 scattered targets, budget 1: must take the whole pod. *)
  let targets = [ 0; 2; 4; 6 ] in
  let cover = Cover.budgeted_cover ~m:3 ~budget:1 targets in
  Alcotest.(check int) "one prefix" 1 (List.length cover);
  Alcotest.(check bool) "covers" true (Cover.is_cover ~m:3 cover ~targets);
  Alcotest.(check int) "overcovers 4" 4 (Cover.over_coverage ~m:3 cover ~targets)

let test_budgeted_intermediate () =
  (* Targets 0,1,2,7: exact needs 01*? no: exact = {00*, 010? ...}
     targets 0,1,2,7 -> exact {00*, 010, 111} = 3 prefixes.  Budget 2
     should pick e.g. {0**, 111} with 1 over-covered id (3). *)
  let targets = [ 0; 1; 2; 7 ] in
  Alcotest.(check int) "exact is 3" 3 (List.length (Cover.exact_cover ~m:3 targets));
  let cover = Cover.budgeted_cover ~m:3 ~budget:2 targets in
  Alcotest.(check int) "two prefixes" 2 (List.length cover);
  Alcotest.(check bool) "covers" true (Cover.is_cover ~m:3 cover ~targets);
  Alcotest.(check int) "overcovers exactly 1" 1
    (Cover.over_coverage ~m:3 cover ~targets)

let test_budgeted_empty_targets () =
  Alcotest.(check int) "empty" 0
    (List.length (Cover.budgeted_cover ~m:3 ~budget:2 []))

let test_budgeted_invalid_budget () =
  Alcotest.(check bool) "raises" true
    (try ignore (Cover.budgeted_cover ~m:3 ~budget:0 [ 1 ]); false
     with Invalid_argument _ -> true)

let prop_budgeted_always_covers =
  QCheck.Test.make ~name:"budgeted_cover covers within budget" ~count:200
    QCheck.(triple (int_range 1 5) (int_range 1 6) (list small_nat))
    (fun (m, budget, raw) ->
      let size = 1 lsl m in
      let targets = List.sort_uniq compare (List.map (fun x -> x mod size) raw) in
      let cover = Cover.budgeted_cover ~m ~budget targets in
      List.length cover <= budget && Cover.is_cover ~m cover ~targets)

(* Property: the budgeted-cover DP is actually optimal — cross-check
   against brute force over every subset of the prefix space for small
   m (15 prefixes at m=3 -> 32767 candidate covers). *)
let prop_budgeted_matches_bruteforce =
  QCheck.Test.make ~name:"budgeted_cover matches brute force" ~count:60
    QCheck.(triple (int_range 1 3) (int_range 1 4) (list small_nat))
    (fun (m, budget, raw) ->
      let size = 1 lsl m in
      let targets = List.sort_uniq compare (List.map (fun x -> x mod size) raw) in
      if targets = [] then true
      else begin
        let all_prefixes =
          List.concat
            (List.init (m + 1) (fun len ->
                 List.init (1 lsl len) (fun value -> { Cover.value; len })))
        in
        let arr = Array.of_list all_prefixes in
        let np = Array.length arr in
        (* Brute force: best (over-coverage, count) among subsets of
           size <= budget that cover the targets. *)
        let best = ref None in
        for mask = 1 to (1 lsl np) - 1 do
          let subset = ref [] in
          for i = 0 to np - 1 do
            if mask land (1 lsl i) <> 0 then subset := arr.(i) :: !subset
          done;
          let cnt = List.length !subset in
          if cnt <= budget && Cover.is_cover ~m !subset ~targets then begin
            let oc = Cover.over_coverage ~m !subset ~targets in
            match !best with
            | Some (boc, bcnt) when (boc, bcnt) <= (oc, cnt) -> ()
            | _ -> best := Some (oc, cnt)
          end
        done;
        let dp = Cover.budgeted_cover ~m ~budget targets in
        let dp_score =
          (Cover.over_coverage ~m dp ~targets, List.length dp)
        in
        match !best with
        | None -> false (* budget >= 1 always admits the whole space *)
        | Some b -> dp_score = b
      end)

let prop_budgeted_monotone_in_budget =
  QCheck.Test.make ~name:"budgeted_cover overcoverage non-increasing in budget"
    ~count:100
    QCheck.(pair (int_range 1 5) (list small_nat))
    (fun (m, raw) ->
      let size = 1 lsl m in
      let targets = List.sort_uniq compare (List.map (fun x -> x mod size) raw) in
      let oc b = Cover.over_coverage ~m (Cover.budgeted_cover ~m ~budget:b targets) ~targets in
      let rec check prev b =
        if b > 5 then true
        else begin
          let cur = oc b in
          cur <= prev && check cur (b + 1)
        end
      in
      check (oc 1) 2)

(* ------------------------------------------------------------------ *)
(* Header                                                              *)
(* ------------------------------------------------------------------ *)

let test_header_bits_formula () =
  (* k=8: m = 2, len bits = ceil(log2 3) = 2 -> 4 bits. *)
  Alcotest.(check int) "k=8" 4 (Header.header_bits ~k:8);
  (* k=64: m = 5, len bits = ceil(log2 6) = 3 -> 8 bits = 1 byte. *)
  Alcotest.(check int) "k=64" 8 (Header.header_bits ~k:64);
  (* k=128: m = 6, len bits = 3 -> 9 bits; still well under 8 bytes. *)
  Alcotest.(check int) "k=128" 9 (Header.header_bits ~k:128);
  Alcotest.(check bool) "k=128 under 8 B" true (Header.header_bytes ~k:128 < 8)

let test_header_bytes () =
  Alcotest.(check int) "k=8 -> 1 byte" 1 (Header.header_bytes ~k:8);
  Alcotest.(check int) "k=128 -> 2 bytes" 2 (Header.header_bytes ~k:128)

let test_header_roundtrip_examples () =
  List.iter
    (fun (m, p) ->
      let enc = Header.encode ~m p in
      let dec = Header.decode ~m enc.Header.raw in
      Alcotest.(check bool)
        (Printf.sprintf "roundtrip m=%d %s" m (Cover.to_string ~m p))
        true (dec = p))
    [ (3, prefix 1 1); (3, prefix 1 2); (3, prefix 5 3); (3, prefix 0 0); (5, prefix 17 5) ]

let test_header_decode_rejects_garbage () =
  (* len=1 but padding bits set below the prefix. *)
  let bad = (1 lsl 3) lor 0b011 in
  Alcotest.(check bool) "padding rejected" true
    (try ignore (Header.decode ~m:3 bad); false with Invalid_argument _ -> true);
  let too_long = 7 lsl 3 in
  Alcotest.(check bool) "len > m rejected" true
    (try ignore (Header.decode ~m:3 too_long); false with Invalid_argument _ -> true)

let test_header_invalid_k () =
  Alcotest.(check bool) "k=6 not power-of-two pod" true
    (try ignore (Header.header_bits ~k:6); false with Invalid_argument _ -> true)

let prop_header_roundtrip =
  QCheck.Test.make ~name:"header encode/decode roundtrip" ~count:500
    QCheck.(triple (int_range 1 6) small_nat small_nat)
    (fun (m, lraw, vraw) ->
      let len = lraw mod (m + 1) in
      let value = vraw mod (1 lsl len) in
      let p = prefix value len in
      Header.decode ~m (Header.encode ~m p).Header.raw = p)

(* ------------------------------------------------------------------ *)
(* Rules                                                               *)
(* ------------------------------------------------------------------ *)

let test_static_table_size () =
  (* m=2 (k=8): 1+2+4 = 7 = k-1 rules. *)
  Alcotest.(check int) "m=2" 7 (Rules.size (Rules.static_table ~m:2));
  (* m=5 (k=64): 63 rules — the paper's headline number. *)
  Alcotest.(check int) "m=5 (64-ary: 63 rules)" 63 (Rules.size (Rules.static_table ~m:5));
  (* m=6 (k=128): 127 rules. *)
  Alcotest.(check int) "m=6" 127 (Rules.size (Rules.static_table ~m:6))

let test_rule_lookup_ports () =
  let t = Rules.static_table ~m:3 in
  let r = Rules.lookup t (prefix 1 1) in
  Alcotest.(check (list int)) "1** -> upper half" [ 4; 5; 6; 7 ] r.Rules.ports;
  let r0 = Rules.lookup t (prefix 0 0) in
  Alcotest.(check int) "*** -> all" 8 (List.length r0.Rules.ports)

let test_rule_lookup_missing () =
  let t = Rules.static_table ~m:2 in
  (* An out-of-space prefix raises a descriptive Invalid_argument that
     names the offending prefix and the table width — not a bare
     Not_found the caller cannot act on. *)
  Alcotest.(check bool) "invalid_arg names the prefix" true
    (try
       ignore (Rules.lookup t (prefix 0 3));
       false
     with Invalid_argument msg ->
       let has needle =
         let nl = String.length needle and ml = String.length msg in
         let rec go i = i + nl <= ml && (String.sub msg i nl = needle || go (i + 1)) in
         go 0
       in
       has "len=3" && has "2-bit")

let test_match_ports_end_to_end () =
  (* Sender encodes 01*; switch decodes and replicates to ToRs 2,3. *)
  let m = 3 in
  let t = Rules.static_table ~m in
  let hdr = Header.encode ~m (prefix 1 2) in
  Alcotest.(check (list int)) "ports" [ 2; 3 ] (Rules.match_ports t hdr ~m)

let test_state_accounting_headline () =
  (* Paper §1: 64-ary fat-tree needs 63 entries instead of over 4e9. *)
  Alcotest.(check int) "peel entries" 63 (Rules.peel_entries ~k:64);
  Alcotest.(check bool) "naive over 4e9" true (Rules.naive_ipmc_entries ~k:64 > 4e9);
  Alcotest.(check bool) "reduction over 6e7" true
    (Rules.state_reduction_factor ~k:64 > 6e7)

let test_state_k128 () =
  Alcotest.(check int) "127 rules at k=128" 127 (Rules.peel_entries ~k:128);
  Alcotest.(check bool) "naive astronomically large" true
    (Rules.naive_ipmc_entries ~k:128 > 1e19)

let prop_rules_cover_every_subset_via_exact_cover =
  (* Any destination ToR subset is expressible: the exact cover's
     prefixes all hit installed rules whose ports reassemble exactly
     the subset. *)
  QCheck.Test.make ~name:"static rules realize every subset" ~count:200
    QCheck.(pair (int_range 1 5) (list small_nat))
    (fun (m, raw) ->
      let size = 1 lsl m in
      let targets = List.sort_uniq compare (List.map (fun x -> x mod size) raw) in
      let table = Rules.static_table ~m in
      let cover = Cover.exact_cover ~m targets in
      let delivered =
        List.concat_map (fun p -> (Rules.lookup table p).Rules.ports) cover
        |> List.sort_uniq compare
      in
      delivered = targets)

(* Both cover builders over 2,000 seeded target sets (m 0-6, duplicates
   and empty sets included, budget 1-5), reduced to one digest.  A
   different block, order or tie-break in either builder changes it.
   Recorded with the bool-array [exact_cover] and the [Hashtbl]-memoized
   [budgeted_cover]. *)
let pinned_covers = "db7fda2e8aed1225"

let test_covers_pinned () =
  let rng = Rng.create 23 in
  let b = Buffer.create (1 lsl 16) in
  let add ps =
    List.iter (fun (p : Cover.prefix) -> Printf.bprintf b " %d/%d" p.value p.len) ps;
    Buffer.add_char b ';'
  in
  for i = 0 to 1999 do
    let m = i mod 7 in
    let size = 1 lsl m in
    let targets = List.init (Rng.int rng (size + 1)) (fun _ -> Rng.int rng size) in
    let budget = 1 + Rng.int rng 5 in
    Printf.bprintf b "m%d b%d:" m budget;
    add (Cover.exact_cover ~m targets);
    add (Cover.budgeted_cover ~m ~budget targets)
  done;
  Alcotest.(check string) "cover digest" pinned_covers
    (String.sub (Digest.to_hex (Digest.string (Buffer.contents b))) 0 16)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "peel_prefix"
    [
      ( "cover_basics",
        [
          Alcotest.test_case "block_size" `Quick test_block_size;
          Alcotest.test_case "covers" `Quick test_covers;
          Alcotest.test_case "expand" `Quick test_expand;
          Alcotest.test_case "to_string" `Quick test_to_string;
          Alcotest.test_case "validate rejects" `Quick test_validate_rejects;
        ] );
      ( "exact_cover",
        [
          Alcotest.test_case "paper example (010..111)" `Quick test_exact_cover_paper_example;
          Alcotest.test_case "whole pod" `Quick test_exact_cover_everything;
          Alcotest.test_case "empty" `Quick test_exact_cover_empty;
          Alcotest.test_case "singleton" `Quick test_exact_cover_singleton;
          Alcotest.test_case "worst-case fragmentation" `Quick
            test_exact_cover_worst_case_fragmentation;
          Alcotest.test_case "duplicates" `Quick test_exact_cover_duplicates_ignored;
          Alcotest.test_case "random sweep (seeded Rng)" `Quick
            test_exact_cover_random_sweep;
          qt prop_exact_cover_exact;
          qt prop_exact_cover_disjoint;
          qt prop_exact_cover_minimal_vs_merging;
        ] );
      ( "budgeted_cover",
        [
          Alcotest.test_case "ample budget = exact" `Quick
            test_budgeted_equals_exact_when_budget_ample;
          Alcotest.test_case "budget 1 over-covers" `Quick
            test_budgeted_tight_budget_overcovers;
          Alcotest.test_case "intermediate budget" `Quick test_budgeted_intermediate;
          Alcotest.test_case "empty targets" `Quick test_budgeted_empty_targets;
          Alcotest.test_case "invalid budget" `Quick test_budgeted_invalid_budget;
          qt prop_budgeted_always_covers;
          qt prop_budgeted_matches_bruteforce;
          qt prop_budgeted_monotone_in_budget;
        ] );
      ("pinned", [ Alcotest.test_case "cover digests" `Quick test_covers_pinned ]);
      ( "header",
        [
          Alcotest.test_case "bits formula" `Quick test_header_bits_formula;
          Alcotest.test_case "bytes" `Quick test_header_bytes;
          Alcotest.test_case "roundtrip examples" `Quick test_header_roundtrip_examples;
          Alcotest.test_case "decode rejects garbage" `Quick test_header_decode_rejects_garbage;
          Alcotest.test_case "invalid k" `Quick test_header_invalid_k;
          qt prop_header_roundtrip;
        ] );
      ( "rules",
        [
          Alcotest.test_case "table size k-1" `Quick test_static_table_size;
          Alcotest.test_case "lookup ports" `Quick test_rule_lookup_ports;
          Alcotest.test_case "lookup missing" `Quick test_rule_lookup_missing;
          Alcotest.test_case "match end-to-end" `Quick test_match_ports_end_to_end;
          Alcotest.test_case "headline state numbers" `Quick test_state_accounting_headline;
          Alcotest.test_case "k=128 state" `Quick test_state_k128;
          qt prop_rules_cover_every_subset_via_exact_cover;
        ] );
    ]
