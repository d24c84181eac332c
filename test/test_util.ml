(* Tests for peel_util: PRNG determinism and distributions, statistics,
   the event-queue heap, bit utilities, and table rendering. *)

open Peel_util

let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)
(* ------------------------------------------------------------------ *)

(* Draws over a range wide enough that two streams agreeing by chance
   is a 2^-30 event. *)
let bound = 1 lsl 30

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.int a bound) (Rng.int b bound)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let all_equal = ref true in
  for _ = 1 to 16 do
    if Rng.int a bound <> Rng.int b bound then all_equal := false
  done;
  Alcotest.(check bool) "different seeds differ" false !all_equal

let test_rng_split_independent () =
  let parent = Rng.create 7 in
  let child = Rng.split parent in
  let a = Rng.int parent bound and b = Rng.int child bound in
  Alcotest.(check bool) "split stream differs" true (a <> b)

let test_rng_copy () =
  let a = Rng.create 9 in
  let _ = Rng.int a bound in
  let b = Rng.copy a in
  Alcotest.(check int) "copy replays" (Rng.int a bound) (Rng.int b bound)

let test_rng_int_bounds () =
  let t = Rng.create 3 in
  for _ = 1 to 1000 do
    let x = Rng.int t 10 in
    Alcotest.(check bool) "0 <= x < 10" true (x >= 0 && x < 10)
  done

let test_rng_int_invalid () =
  let t = Rng.create 3 in
  Alcotest.check_raises "non-positive bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int t 0))

let test_rng_int_in () =
  let t = Rng.create 4 in
  for _ = 1 to 500 do
    let x = Rng.int_in t (-5) 5 in
    Alcotest.(check bool) "in range" true (x >= -5 && x <= 5)
  done

let test_rng_float_bounds () =
  let t = Rng.create 5 in
  for _ = 1 to 1000 do
    let x = Rng.float t 2.5 in
    Alcotest.(check bool) "0 <= x < 2.5" true (x >= 0.0 && x < 2.5)
  done

let test_rng_exponential_mean () =
  let t = Rng.create 6 in
  let n = 20000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    let x = Rng.exponential t ~mean:3.0 in
    Alcotest.(check bool) "positive" true (x >= 0.0);
    sum := !sum +. x
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean near 3.0" true (Float.abs (mean -. 3.0) < 0.15)

let test_rng_normal_moments () =
  let t = Rng.create 8 in
  let n = 20000 in
  (* Five sigmas above zero, the truncation at 0 never bites. *)
  let s = Stats.summarize (List.init n (fun _ -> Rng.normal_pos t ~mu:10.0 ~sigma:2.0)) in
  Alcotest.(check bool) "mean near 10" true (Float.abs (s.mean -. 10.0) < 0.1);
  Alcotest.(check bool) "stddev near 2" true (Float.abs (s.stddev -. 2.0) < 0.1)

let test_rng_normal_pos () =
  let t = Rng.create 11 in
  for _ = 1 to 2000 do
    let x = Rng.normal_pos t ~mu:0.01 ~sigma:0.005 in
    Alcotest.(check bool) "non-negative" true (x >= 0.0)
  done

let test_rng_shuffle_permutation () =
  let t = Rng.create 12 in
  let a = Array.init 50 (fun i -> i) in
  Rng.shuffle t a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 (fun i -> i)) sorted

let test_rng_sample_without_replacement () =
  let t = Rng.create 13 in
  let s = Rng.sample_without_replacement t 100 10 in
  Alcotest.(check int) "10 samples" 10 (List.length s);
  Alcotest.(check int) "distinct" 10 (List.length (List.sort_uniq compare s));
  List.iter (fun x -> Alcotest.(check bool) "in range" true (x >= 0 && x < 100)) s

let test_rng_sample_all () =
  let t = Rng.create 14 in
  let s = Rng.sample_without_replacement t 5 5 in
  Alcotest.(check (list int)) "full range" [ 0; 1; 2; 3; 4 ] s

(* Property: sample_without_replacement always returns distinct sorted
   values in range. *)
let prop_sample =
  QCheck.Test.make ~name:"sample_without_replacement distinct sorted"
    QCheck.(pair (int_range 1 200) small_nat)
    (fun (n, k) ->
      let k = min k n in
      let t = Rng.create (n + (k * 1000)) in
      let s = Rng.sample_without_replacement t n k in
      List.length s = k
      && List.sort_uniq compare s = s
      && List.for_all (fun x -> x >= 0 && x < n) s)

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let test_stats_summary_basic () =
  let s = Stats.summarize [ 1.0; 2.0; 3.0; 4.0; 5.0 ] in
  check_float "mean" 3.0 s.mean;
  check_float "min" 1.0 s.min;
  check_float "max" 5.0 s.max;
  check_float "p50" 3.0 s.p50;
  Alcotest.(check int) "count" 5 s.count

let test_stats_single () =
  let s = Stats.summarize [ 7.5 ] in
  check_float "mean" 7.5 s.mean;
  check_float "p99" 7.5 s.p99;
  check_float "stddev" 0.0 s.stddev

let test_stats_empty () =
  Alcotest.check_raises "empty raises" (Invalid_argument "Stats.summarize: empty sample")
    (fun () -> ignore (Stats.summarize []))

let test_stats_percentile_interpolation () =
  let sorted = [| 0.0; 10.0 |] in
  check_float "p50 interpolates" 5.0 (Stats.summarize (Array.to_list sorted)).p50

let test_stats_p99_tail () =
  (* 99 zeros and a single 100: p99 should be pulled toward the tail. *)
  let samples = Array.make 100 0.0 in
  samples.(99) <- 100.0;
  let s = Stats.summarize (Array.to_list samples) in
  Alcotest.(check bool) "p99 sees tail" true (s.p99 > 0.0);
  check_float "mean" 1.0 s.mean

let prop_percentile_monotone =
  QCheck.Test.make ~name:"percentiles monotone in q"
    QCheck.(list_of_size (Gen.int_range 2 50) (float_range 0.0 1000.0))
    (fun xs ->
      let s = Stats.summarize xs in
      s.p50 <= s.p90 && s.p90 <= s.p99)

let prop_summary_bounds =
  QCheck.Test.make ~name:"mean within [min,max]"
    QCheck.(list_of_size (Gen.int_range 1 100) (float_range (-1e6) 1e6))
    (fun xs ->
      let s = Stats.summarize xs in
      s.min <= s.mean && s.mean <= s.max && s.min <= s.p99 && s.p99 <= s.max)

(* ------------------------------------------------------------------ *)
(* Pairing_heap                                                        *)
(* ------------------------------------------------------------------ *)

(* Every entry, in pop order, as (priority, payload). *)
let heap_drain h =
  let rec go acc =
    if Pairing_heap.is_empty h then List.rev acc
    else
      let p = Pairing_heap.min_prio h in
      go ((p, Pairing_heap.pop_min h) :: acc)
  in
  go []

let test_heap_ordering () =
  let h = Pairing_heap.create () in
  List.iter (fun (p, v) -> Pairing_heap.push h p v)
    [ (3.0, 3); (1.0, 1); (2.0, 2); (0.5, 0) ];
  Alcotest.(check (list int)) "min-first" [ 0; 1; 2; 3 ]
    (List.map snd (heap_drain h))

let test_heap_fifo_ties () =
  let h = Pairing_heap.create () in
  List.iter (fun v -> Pairing_heap.push h 1.0 v) [ 1; 2; 3; 4; 5 ];
  Alcotest.(check (list int)) "insertion order for equal priorities" [ 1; 2; 3; 4; 5 ]
    (List.map snd (heap_drain h))

let test_heap_empty () =
  let h = Pairing_heap.create () in
  Alcotest.(check bool) "empty" true (Pairing_heap.is_empty h);
  Alcotest.check_raises "pop_min raises"
    (Invalid_argument "Pairing_heap.pop_min: empty") (fun () ->
      ignore (Pairing_heap.pop_min h));
  Alcotest.check_raises "min_prio raises"
    (Invalid_argument "Pairing_heap.min_prio: empty") (fun () ->
      ignore (Pairing_heap.min_prio h))

let test_heap_interleaved () =
  let h = Pairing_heap.create () in
  Pairing_heap.push h 5.0 5;
  Pairing_heap.push h 1.0 1;
  check_float "prio" 1.0 (Pairing_heap.min_prio h);
  Alcotest.(check int) "val" 1 (Pairing_heap.pop_min h);
  Pairing_heap.push h 0.5 0;
  check_float "min after push" 0.5 (Pairing_heap.min_prio h);
  Alcotest.(check int) "length" 2 (Pairing_heap.length h);
  Alcotest.(check int) "pop smallest" 0 (Pairing_heap.pop_min h)

(* The lane takes a push at the priority just popped; an entry already
   in the heap at that priority is older and must pop first. *)
let test_heap_lane_after_older_tie () =
  let h = Pairing_heap.create () in
  Pairing_heap.push h 1.0 0;
  Pairing_heap.push h 1.0 1;
  Pairing_heap.push h 2.0 9;
  Alcotest.(check int) "first tie" 0 (Pairing_heap.pop_min h);
  Pairing_heap.push h 1.0 2;
  Pairing_heap.push h 1.0 3;
  Alcotest.(check int) "length counts the lane" 4 (Pairing_heap.length h);
  Alcotest.(check (list (pair (float 0.0) int)))
    "older heap entry, then the lane in push order, then later priorities"
    [ (1.0, 1); (1.0, 2); (1.0, 3); (2.0, 9) ]
    (heap_drain h)

(* A pop below the lane's priority (a non-monotone push) must not move
   the lane's entries to the new priority. *)
let test_heap_lane_keeps_priority () =
  let h = Pairing_heap.create () in
  Pairing_heap.push h 2.0 0;
  Alcotest.(check int) "pop at 2" 0 (Pairing_heap.pop_min h);
  Pairing_heap.push h 2.0 1;
  Pairing_heap.push h 1.0 2;
  check_float "min is the later, lower push" 1.0 (Pairing_heap.min_prio h);
  Alcotest.(check int) "pop at 1" 2 (Pairing_heap.pop_min h);
  Pairing_heap.push h 1.0 3;
  Pairing_heap.push h 2.0 4;
  Alcotest.(check (list (pair (float 0.0) int)))
    "each entry at its own priority, FIFO within it"
    [ (1.0, 3); (2.0, 1); (2.0, 4) ]
    (heap_drain h)

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap drains in sorted order"
    QCheck.(list (float_range 0.0 1e6))
    (fun xs ->
      let h = Pairing_heap.create () in
      List.iteri (fun i x -> Pairing_heap.push h x i) xs;
      List.map fst (heap_drain h) = List.sort compare xs)

(* Random interleaved pushes and pops against a reference list ordered
   by (priority, push index): every pop, minimum and length must agree.
   Pushes land on three fixed priorities (so ties are the common case),
   at the priority last popped (the lane) and one below it (a
   non-monotone push that the lane must not absorb). *)
let prop_heap_interleaved =
  QCheck.Test.make ~name:"heap interleaved ops match (prio, push index) order"
    ~count:300
    QCheck.(list (pair (int_range 0 5) (int_range 0 2)))
    (fun ops ->
      let h = Pairing_heap.create () in
      let reference = ref [] and pushed = ref 0 and last = ref 0 in
      List.for_all
        (fun (kind, p) ->
          let pop_ok =
            if kind <= 1 then
              match !reference with
              | [] -> Pairing_heap.is_empty h
              | (p, v) :: rest ->
                  reference := rest;
                  last := p;
                  let got_p = Pairing_heap.min_prio h in
                  got_p = float_of_int p && Pairing_heap.pop_min h = v
            else begin
              let p =
                if kind <= 3 then p else if kind = 4 then !last else !last - 1
              in
              Pairing_heap.push h (float_of_int p) !pushed;
              reference := List.merge compare !reference [ (p, !pushed) ];
              incr pushed;
              true
            end
          in
          pop_ok
          && Pairing_heap.length h = List.length !reference
          &&
          match !reference with
          | [] -> Pairing_heap.is_empty h
          | (p, _) :: _ -> Pairing_heap.min_prio h = float_of_int p)
        ops)

let test_heap_tiebreak_at_scale () =
  (* 1e5 equal-priority entries must drain in exact insertion order:
     the tiebreak is what keeps big simulations deterministic, and this
     size crosses many grow boundaries and deep sift paths. *)
  let n = 100_000 in
  let h = Pairing_heap.create () in
  (* A few distinct priorities, heavily duplicated, pushed round-robin:
     per priority the values must still come out in insertion order. *)
  for i = 0 to n - 1 do
    Pairing_heap.push h (float_of_int (i mod 4)) i
  done;
  let last_seen = Array.make 4 (-1) in
  let prev_prio = ref neg_infinity in
  while not (Pairing_heap.is_empty h) do
    let p = Pairing_heap.min_prio h in
    let v = Pairing_heap.pop_min h in
    if p < !prev_prio then Alcotest.fail "priority went backwards";
    let b = int_of_float p in
    if v <= last_seen.(b) then
      Alcotest.failf "FIFO violated at prio %d: %d after %d" b v last_seen.(b);
    last_seen.(b) <- v;
    prev_prio := p
  done;
  (* The last value drained per priority must be the last pushed. *)
  Array.iteri
    (fun b last ->
      Alcotest.(check int)
        (Printf.sprintf "bucket %d drained fully" b)
        (n - 4 + b) last)
    last_seen

let test_heap_grow_boundary () =
  (* The backing arrays (heap and lane) start at 16 and double;
     exercise push/pop right at the boundaries, including popping down
     across one. *)
  let h = Pairing_heap.create () in
  List.iter
    (fun n ->
      for i = 0 to n - 1 do
        Pairing_heap.push h (float_of_int (n - i)) i
      done;
      Alcotest.(check int) "length" n (Pairing_heap.length h);
      let prev = ref neg_infinity in
      for _ = 1 to n do
        if Pairing_heap.is_empty h then Alcotest.fail "heap drained early";
        let p = Pairing_heap.min_prio h in
        ignore (Pairing_heap.pop_min h);
        if p < !prev then Alcotest.fail "priority went backwards";
        prev := p
      done;
      Alcotest.(check bool) "drained" true (Pairing_heap.is_empty h))
    [ 15; 16; 17; 31; 32; 33 ];
  (* The lane's ring wraps and grows: after popping at 0.0, keep it
     [n] deep while cycling entries through it. *)
  List.iter
    (fun n ->
      let h = Pairing_heap.create () in
      Pairing_heap.push h 0.0 (-1);
      ignore (Pairing_heap.pop_min h);
      for i = 0 to n - 1 do
        Pairing_heap.push h 0.0 i
      done;
      for i = n to (3 * n) - 1 do
        Alcotest.(check int) "lane FIFO" (i - n) (Pairing_heap.pop_min h);
        Pairing_heap.push h 0.0 i
      done;
      Alcotest.(check (list int)) "lane drains in order"
        (List.init n (fun i -> (2 * n) + i))
        (List.map snd (heap_drain h)))
    [ 15; 16; 17; 33 ]

(* ------------------------------------------------------------------ *)
(* Pool                                                                *)
(* ------------------------------------------------------------------ *)

let test_pool_par_map_basic () =
  let pool = Pool.create ~jobs:4 () in
  let l = List.init 100 Fun.id in
  Alcotest.(check (list int)) "matches List.map"
    (List.map (fun x -> (x * x) + 1) l)
    (Pool.par_map ~pool (fun x -> (x * x) + 1) l);
  Alcotest.(check (list int)) "empty" [] (Pool.par_map ~pool Fun.id []);
  Alcotest.(check (list int)) "singleton" [ 9 ]
    (Pool.par_map ~pool (fun x -> x * x) [ 3 ])

let prop_pool_matches_list_map =
  (* The determinism contract: input order out, for every worker count
     and every chunk size. *)
  QCheck.Test.make ~name:"par_map f l = List.map f l for any jobs/chunk"
    QCheck.(
      triple (int_range 1 6) (int_range 1 10)
        (list_of_size (Gen.int_range 0 60) small_int))
    (fun (jobs, chunk, l) ->
      let pool = Pool.create ~jobs () in
      Pool.par_map ~pool ~chunk (fun x -> (2 * x) - 7) l
      = List.map (fun x -> (2 * x) - 7) l)

let test_pool_exception_lowest_index () =
  let pool = Pool.create ~jobs:4 () in
  let f i = if i >= 3 then failwith (string_of_int i) else i in
  Alcotest.check_raises "lowest failing index wins" (Failure "3") (fun () ->
      ignore (Pool.par_map ~pool ~chunk:1 f (List.init 10 Fun.id)))

let test_pool_nested_sequential () =
  (* A par_map inside a worker must fall back to List.map rather than
     spawn domains from domains; the result is still the plain map. *)
  let pool = Pool.create ~jobs:3 () in
  let inner x = Pool.par_map ~pool (fun y -> x + y) [ 1; 2; 3 ] in
  Alcotest.(check (list (list int))) "nested result"
    (List.map (fun x -> [ x + 1; x + 2; x + 3 ]) [ 10; 20; 30; 40 ])
    (Pool.par_map ~pool inner [ 10; 20; 30; 40 ])

let test_pool_validation () =
  Alcotest.check_raises "create 0"
    (Invalid_argument "Pool.create: jobs must be >= 1") (fun () ->
      ignore (Pool.create ~jobs:0 ()));
  Alcotest.check_raises "set_default_jobs 0"
    (Invalid_argument "Pool.set_default_jobs: jobs must be >= 1") (fun () ->
      Pool.set_default_jobs 0);
  let pool = Pool.create ~jobs:2 () in
  Alcotest.check_raises "chunk 0"
    (Invalid_argument "Pool.par_map: chunk must be >= 1") (fun () ->
      ignore (Pool.par_map ~pool ~chunk:0 Fun.id [ 1; 2 ]))

let test_pool_default_jobs_override () =
  Pool.set_default_jobs 5;
  Alcotest.(check int) "override respected" 5 (Pool.default_jobs ());
  Pool.set_default_jobs 1;
  Alcotest.(check int) "reset" 1 (Pool.default_jobs ())

(* ------------------------------------------------------------------ *)
(* Bits                                                                *)
(* ------------------------------------------------------------------ *)

let test_bits_power_of_two () =
  Alcotest.(check bool) "1" true (Bits.is_power_of_two 1);
  Alcotest.(check bool) "64" true (Bits.is_power_of_two 64);
  Alcotest.(check bool) "63" false (Bits.is_power_of_two 63);
  Alcotest.(check bool) "0" false (Bits.is_power_of_two 0);
  Alcotest.(check bool) "-4" false (Bits.is_power_of_two (-4))

let test_bits_ilog2 () =
  Alcotest.(check int) "ilog2 1" 0 (Bits.ilog2 1);
  Alcotest.(check int) "ilog2 2" 1 (Bits.ilog2 2);
  Alcotest.(check int) "ilog2 3" 1 (Bits.ilog2 3);
  Alcotest.(check int) "ilog2 1024" 10 (Bits.ilog2 1024)

let test_bits_ceil_log2 () =
  Alcotest.(check int) "ceil_log2 1" 0 (Bits.ceil_log2 1);
  Alcotest.(check int) "ceil_log2 3" 2 (Bits.ceil_log2 3);
  Alcotest.(check int) "ceil_log2 4" 2 (Bits.ceil_log2 4);
  Alcotest.(check int) "ceil_log2 5" 3 (Bits.ceil_log2 5)

let test_bits_misc () =
  Alcotest.(check int) "pow2 10" 1024 (Bits.pow2 10);
  Alcotest.(check int) "ceil_div" 4 (Bits.ceil_div 7 2);
  Alcotest.(check bool) "bit 5 0" true (Bits.bit 5 0);
  Alcotest.(check bool) "bit 5 1" false (Bits.bit 5 1)

let prop_bits_roundtrip =
  QCheck.Test.make ~name:"pow2 inverts ilog2 on powers of two"
    QCheck.(int_range 0 60)
    (fun n -> Bits.ilog2 (Bits.pow2 n) = n)

(* ------------------------------------------------------------------ *)
(* Table                                                               *)
(* ------------------------------------------------------------------ *)

(* What [f] writes to stdout. *)
let printed f =
  let file = Filename.temp_file "table" ".txt" in
  let saved = Unix.dup Unix.stdout in
  let fd = Unix.openfile file [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  flush stdout;
  Unix.dup2 fd Unix.stdout;
  Unix.close fd;
  Fun.protect f ~finally:(fun () ->
      flush stdout;
      Unix.dup2 saved Unix.stdout;
      Unix.close saved);
  let out = In_channel.with_open_bin file In_channel.input_all in
  Sys.remove file;
  out

let test_table_render () =
  let out =
    printed (fun () -> Table.print ~header:[ "a"; "bb" ] [ [ "1"; "2" ]; [ "333"; "4" ] ])
  in
  let lines = String.split_on_char '\n' out in
  Alcotest.(check int) "4 lines + trailing" 5 (List.length lines);
  Alcotest.(check bool) "contains separator" true
    (List.exists (fun l -> String.length l > 0 && l.[0] = '-') lines)

let test_table_pads_short_rows () =
  let out = printed (fun () -> Table.print ~header:[ "a"; "b"; "c" ] [ [ "1" ] ]) in
  Alcotest.(check bool) "renders" true (String.length out > 0)

let test_table_formats () =
  Alcotest.(check string) "seconds" "1.500 s" (Table.fsec 1.5);
  Alcotest.(check string) "millis" "2.000 ms" (Table.fsec 0.002);
  Alcotest.(check string) "micros" "85.0 us" (Table.fsec 85e-6);
  Alcotest.(check string) "factor" "5.2x" (Table.ffactor 5.2)

(* ------------------------------------------------------------------ *)
(* Json                                                                 *)
(* ------------------------------------------------------------------ *)

let parse_ok s =
  match Json.parse s with
  | Ok v -> v
  | Error e -> Alcotest.fail ("parse failed: " ^ e)

let test_json_write () =
  Alcotest.(check string) "scalars" {|[null,true,false,0,-1.5,"a"]|}
    (Json.to_string
       (Json.Arr
          [ Json.Null; Json.Bool true; Json.Bool false; Json.num 0.0;
            Json.num (-1.5); Json.str "a" ]));
  Alcotest.(check string) "object" {|{"k":1,"s":"v"}|}
    (Json.to_string (Json.Obj [ ("k", Json.int 1); ("s", Json.str "v") ]));
  Alcotest.(check string) "escapes" {|"a\"b\\c\nd"|}
    (Json.to_string (Json.str "a\"b\\c\nd"));
  Alcotest.(check string) "non-finite is null" "[null,null,null]"
    (Json.to_string (Json.Arr [ Json.num nan; Json.num infinity; Json.num neg_infinity ]))

let test_json_parse () =
  (match parse_ok {| { "a" : [1, 2.5e1, -3], "b" : "xA\n" } |} with
  | Json.Obj [ ("a", Json.Arr nums); ("b", Json.Str s) ] ->
      Alcotest.(check (list (float 0.0))) "numbers" [ 1.0; 25.0; -3.0 ]
        (List.map (fun v -> Option.get (Json.get_num v)) nums);
      Alcotest.(check string) "escapes decoded" "xA\n" s
  | _ -> Alcotest.fail "unexpected shape");
  List.iter
    (fun bad ->
      match Json.parse bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail (Printf.sprintf "accepted %S" bad))
    [ ""; "{"; "[1,]"; "tru"; "\"unterminated"; "1 2"; "{\"a\":}"; "nan";
      "\"bad \\x escape\"" ]

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("ints", Json.Arr [ Json.int 0; Json.int (-7); Json.num 1e15 ]);
        ("floats", Json.Arr [ Json.num 0.1; Json.num 1.5e-300; Json.num 3.14159 ]);
        ("deep", Json.Obj [ ("x", Json.Arr [ Json.Obj []; Json.Arr [] ]) ]);
        ("unicode", Json.str "caf\xc3\xa9 \t \x01");
      ]
  in
  Alcotest.(check bool) "parse inverts to_string" true
    (parse_ok (Json.to_string v) = v)

let test_json_accessors () =
  let v = parse_ok {|{"n":4,"s":"hi","a":[1],"b":true}|} in
  Alcotest.(check (option (float 0.0))) "num" (Some 4.0)
    (Option.bind (Json.member "n" v) Json.get_num);
  Alcotest.(check (option string)) "str" (Some "hi")
    (Option.bind (Json.member "s" v) Json.get_str);
  Alcotest.(check (option bool)) "bool" (Some true)
    (Option.bind (Json.member "b" v) Json.get_bool);
  Alcotest.(check bool) "arr" true
    (Option.bind (Json.member "a" v) Json.get_arr = Some [ Json.Num 1.0 ]);
  Alcotest.(check bool) "missing member" true (Json.member "zz" v = None);
  Alcotest.(check bool) "wrong type" true (Json.get_num (Json.str "x") = None)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "peel_util"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "split independent" `Quick test_rng_split_independent;
          Alcotest.test_case "copy replays" `Quick test_rng_copy;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int invalid" `Quick test_rng_int_invalid;
          Alcotest.test_case "int_in range" `Quick test_rng_int_in;
          Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
          Alcotest.test_case "exponential mean" `Slow test_rng_exponential_mean;
          Alcotest.test_case "normal moments" `Slow test_rng_normal_moments;
          Alcotest.test_case "normal_pos nonneg" `Quick test_rng_normal_pos;
          Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "sample w/o replacement" `Quick test_rng_sample_without_replacement;
          Alcotest.test_case "sample all" `Quick test_rng_sample_all;
          qt prop_sample;
        ] );
      ( "stats",
        [
          Alcotest.test_case "summary basic" `Quick test_stats_summary_basic;
          Alcotest.test_case "single sample" `Quick test_stats_single;
          Alcotest.test_case "empty raises" `Quick test_stats_empty;
          Alcotest.test_case "percentile interpolation" `Quick test_stats_percentile_interpolation;
          Alcotest.test_case "p99 tail" `Quick test_stats_p99_tail;
          qt prop_percentile_monotone;
          qt prop_summary_bounds;
        ] );
      ( "heap",
        [
          Alcotest.test_case "ordering" `Quick test_heap_ordering;
          Alcotest.test_case "fifo ties" `Quick test_heap_fifo_ties;
          Alcotest.test_case "empty" `Quick test_heap_empty;
          Alcotest.test_case "interleaved" `Quick test_heap_interleaved;
          Alcotest.test_case "lane after older tie" `Quick
            test_heap_lane_after_older_tie;
          Alcotest.test_case "lane keeps its priority" `Quick
            test_heap_lane_keeps_priority;
          Alcotest.test_case "tiebreak at 1e5" `Quick test_heap_tiebreak_at_scale;
          Alcotest.test_case "grow boundary" `Quick test_heap_grow_boundary;
          qt prop_heap_sorts;
          qt prop_heap_interleaved;
        ] );
      ( "pool",
        [
          Alcotest.test_case "par_map basic" `Quick test_pool_par_map_basic;
          Alcotest.test_case "exception lowest index" `Quick
            test_pool_exception_lowest_index;
          Alcotest.test_case "nested sequential" `Quick test_pool_nested_sequential;
          Alcotest.test_case "validation" `Quick test_pool_validation;
          Alcotest.test_case "default jobs override" `Quick
            test_pool_default_jobs_override;
          qt prop_pool_matches_list_map;
        ] );
      ( "bits",
        [
          Alcotest.test_case "power of two" `Quick test_bits_power_of_two;
          Alcotest.test_case "ilog2" `Quick test_bits_ilog2;
          Alcotest.test_case "ceil_log2" `Quick test_bits_ceil_log2;
          Alcotest.test_case "misc" `Quick test_bits_misc;
          qt prop_bits_roundtrip;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "pads short rows" `Quick test_table_pads_short_rows;
          Alcotest.test_case "formats" `Quick test_table_formats;
        ] );
      ( "json",
        [
          Alcotest.test_case "write" `Quick test_json_write;
          Alcotest.test_case "parse" `Quick test_json_parse;
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "accessors" `Quick test_json_accessors;
        ] );
    ]
