(* Tests for peel_workload: locality placement, offered-load
   calibration, Poisson arrival generation, fragmentation knob. *)

open Peel_topology
open Peel_workload
module Rng = Peel_util.Rng

let fat8 () = Fabric.fat_tree ~k:8 ~hosts_per_tor:4 ~gpus_per_host:8 ()

let test_place_contiguous_aligned () =
  let f = fat8 () in
  let rng = Rng.create 5 in
  let members = Spec.place f rng ~scale:64 () in
  Alcotest.(check int) "64 members" 64 (List.length members);
  (* Contiguous run in the endpoints array (locality order). *)
  let eps = Fabric.endpoints f in
  let pos = Hashtbl.create 1024 in
  Array.iteri (fun i e -> Hashtbl.replace pos e i) eps;
  let indices = List.map (Hashtbl.find pos) members |> List.sort compare in
  let first = List.hd indices in
  List.iteri
    (fun i idx -> Alcotest.(check int) "contiguous" (first + i) idx)
    indices;
  Alcotest.(check int) "server aligned" 0 (first mod 8)

let test_place_full_fabric () =
  let f = fat8 () in
  let rng = Rng.create 1 in
  let members = Spec.place f rng ~scale:1024 () in
  Alcotest.(check int) "everyone" 1024 (List.length members)

let test_place_errors () =
  let f = fat8 () in
  let rng = Rng.create 1 in
  Alcotest.(check bool) "too big" true
    (try ignore (Spec.place f rng ~scale:2048 ()); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "too small" true
    (try ignore (Spec.place f rng ~scale:1 ()); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "bad fragmentation" true
    (try ignore (Spec.place f rng ~scale:8 ~fragmentation:1.5 ()); false
     with Invalid_argument _ -> true);
  Alcotest.check_raises "NaN fragmentation"
    (Invalid_argument "Spec.place: fragmentation in [0,1]") (fun () ->
      ignore (Spec.place f rng ~scale:8 ~fragmentation:Float.nan ()))

(* NaN or a non-positive size used to come back as a NaN or negative
   interarrival time instead of failing here. *)
let test_mean_interarrival_rejects () =
  let f = fat8 () in
  let load_msg = "Spec.mean_interarrival: load in (0,1]" in
  let bytes_msg = "Spec.mean_interarrival: bytes must be finite and > 0" in
  let call ~bytes ~load () = ignore (Spec.mean_interarrival f ~scale:8 ~bytes ~load) in
  Alcotest.check_raises "load nan" (Invalid_argument load_msg) (call ~bytes:1e6 ~load:Float.nan);
  Alcotest.check_raises "bytes nan" (Invalid_argument bytes_msg)
    (call ~bytes:Float.nan ~load:0.5);
  Alcotest.check_raises "bytes -1" (Invalid_argument bytes_msg) (call ~bytes:(-1.0) ~load:0.5);
  Alcotest.check_raises "bytes inf" (Invalid_argument bytes_msg)
    (call ~bytes:Float.infinity ~load:0.5);
  Alcotest.(check bool) "valid input" true
    (Spec.mean_interarrival f ~scale:8 ~bytes:1e6 ~load:0.5 > 0.0)

let test_place_fragmentation_preserves_count () =
  let f = fat8 () in
  let rng = Rng.create 9 in
  for _ = 1 to 20 do
    let members = Spec.place f rng ~scale:64 ~fragmentation:0.5 () in
    Alcotest.(check int) "still 64" 64 (List.length members);
    Alcotest.(check int) "distinct" 64 (List.length (List.sort_uniq compare members))
  done

let test_fragmentation_spreads_racks () =
  let f = fat8 () in
  let count_racks members =
    List.map (fun e -> Fabric.attach_tor f e) members
    |> List.sort_uniq compare |> List.length
  in
  let rng = Rng.create 42 in
  let compact = Spec.place f rng ~scale:128 () in
  let spread = Spec.place f rng ~scale:128 ~fragmentation:0.8 () in
  Alcotest.(check bool) "fragmented uses >= racks" true
    (count_racks spread >= count_racks compact)

let test_mean_interarrival_formula () =
  let f = fat8 () in
  (* 1024 endpoints x 12.5e9 B/s capacity; scale 512, 8 MB, load 0.3. *)
  let expect = 8e6 *. 512.0 /. (0.3 *. 1024.0 *. 12.5e9) in
  Alcotest.(check (float 1e-12)) "formula" expect
    (Spec.mean_interarrival f ~scale:512 ~bytes:8e6 ~load:0.3)

let test_poisson_broadcasts_shape () =
  let f = fat8 () in
  let rng = Rng.create 77 in
  let cs = Spec.poisson_broadcasts f rng ~n:50 ~scale:64 ~bytes:1e6 ~load:0.3 () in
  Alcotest.(check int) "50 collectives" 50 (List.length cs);
  let rec check_monotone prev = function
    | [] -> ()
    | (c : Spec.collective) :: rest ->
        Alcotest.(check bool) "arrivals increase" true (c.arrival > prev);
        check_monotone c.arrival rest
  in
  check_monotone (-1.0) cs;
  List.iter
    (fun (c : Spec.collective) ->
      Alcotest.(check int) "ids unique members" 64 (List.length c.members);
      Alcotest.(check bool) "source is member" true (List.mem c.source c.members);
      Alcotest.(check bool) "source not in dests" false (List.mem c.source c.dests);
      Alcotest.(check int) "dests = members - 1" 63 (List.length c.dests))
    cs

let test_poisson_interarrival_statistics () =
  let f = fat8 () in
  let rng = Rng.create 123 in
  let cs = Spec.poisson_broadcasts f rng ~n:3000 ~scale:64 ~bytes:1e6 ~load:0.3 () in
  let mean_expected = Spec.mean_interarrival f ~scale:64 ~bytes:1e6 ~load:0.3 in
  let arr = List.map (fun (c : Spec.collective) -> c.Spec.arrival) cs in
  let last = List.nth arr (List.length arr - 1) in
  let empirical = last /. 3000.0 in
  Alcotest.(check bool) "empirical mean within 10%" true
    (Float.abs (empirical -. mean_expected) /. mean_expected < 0.1)

let test_poisson_deterministic () =
  let f = fat8 () in
  let gen seed =
    Spec.poisson_broadcasts f (Rng.create seed) ~n:10 ~scale:32 ~bytes:1e6
      ~load:0.3 ()
    |> List.map (fun (c : Spec.collective) -> (c.arrival, c.source))
  in
  Alcotest.(check bool) "same seed same workload" true (gen 4 = gen 4);
  Alcotest.(check bool) "different seed differs" true (gen 4 <> gen 5)

let prop_place_members_are_endpoints =
  QCheck.Test.make ~name:"placement picks real endpoints" ~count:50
    QCheck.(pair (int_range 0 10000) (int_range 2 96))
    (fun (seed, scale) ->
      let f = Fabric.leaf_spine ~spines:2 ~leaves:6 ~hosts_per_leaf:2 ~gpus_per_host:8 () in
      let rng = Rng.create seed in
      let members = Spec.place f rng ~scale () in
      let eps = Array.to_list (Fabric.endpoints f) in
      List.length members = scale && List.for_all (fun m -> List.mem m eps) members)

(* ------------------------------------------------------------------ *)
(* Group churn + open-loop event streams                                *)
(* ------------------------------------------------------------------ *)

let test_poisson_groups_match_broadcasts () =
  (* Seed compatibility: the batch wrapper consumes every broadcast
     draw before any hold draw, so a same-seed caller that previously
     used [poisson_broadcasts] sees the identical schedule — the
     wrapper only adds a departure per group. *)
  let f = fat8 () in
  let batch =
    Spec.poisson_groups f (Rng.create 1700) ~n:8 ~scale:16 ~bytes:1e6
      ~load:0.4 ~hold:0.05 ~fragmentation:0.5 ()
  in
  let broadcasts =
    Spec.poisson_broadcasts f (Rng.create 1700) ~n:8 ~scale:16 ~bytes:1e6
      ~load:0.4 ~fragmentation:0.5 ()
  in
  Alcotest.(check bool) "identical broadcast schedules" true
    (List.map Spec.collective_of_group batch = broadcasts);
  List.iter
    (fun g ->
      Alcotest.(check bool) "departure after arrival" true
        (g.Spec.g_departure > g.Spec.g_arrival))
    batch

let stream_tenants =
  [
    Stream.tenant ~rate:300.0 ~scale:6 ~bytes:1e6 ~hold:0.3 ~churn:60.0
      ~sends:30.0 ();
    Stream.tenant ~rate:100.0 ~scale:12 ~bytes:4e6 ~hold:0.2 ~churn:20.0
      ~sends:10.0 ~fragmentation:0.5 ();
  ]

let stream_fabric () =
  Fabric.leaf_spine ~spines:3 ~leaves:6 ~hosts_per_leaf:2 ~gpus_per_host:2 ()

let test_stream_validates () =
  let f = stream_fabric () in
  let reject tenants =
    try
      ignore (Stream.create f (Rng.create 1) ~tenants ());
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "empty tenant list" true (reject []);
  Alcotest.(check bool) "all-zero rates" true
    (reject [ Stream.tenant ~rate:0.0 ~scale:4 ~bytes:1e6 ~hold:0.1 () ]);
  Alcotest.(check bool) "scale too small" true
    (reject [ Stream.tenant ~rate:1.0 ~scale:1 ~bytes:1e6 ~hold:0.1 () ]);
  Alcotest.(check bool) "scale beyond the fabric" true
    (reject [ Stream.tenant ~rate:1.0 ~scale:1000 ~bytes:1e6 ~hold:0.1 () ]);
  Alcotest.check_raises "NaN fragmentation"
    (Invalid_argument "Stream.create: tenant 0 fragmentation in [0,1]") (fun () ->
      ignore
        (Stream.create f (Rng.create 1)
           ~tenants:
             [ Stream.tenant ~fragmentation:Float.nan ~rate:1.0 ~scale:4 ~bytes:1e6 ~hold:0.1 () ]
           ()))

(* The next [n] events of a stream, in order. *)
let take s n = List.init n (fun _ -> Stream.next s)

let test_stream_deterministic () =
  let events n seed =
    let f = stream_fabric () in
    take (Stream.create f (Rng.create seed) ~tenants:stream_tenants ()) n
    |> List.map (fun (e : Stream.event) ->
           (e.Stream.ev_time, e.Stream.ev_seq, Stream.kind_to_string e.Stream.ev_kind))
  in
  Alcotest.(check bool) "same seed same stream" true (events 500 3 = events 500 3);
  Alcotest.(check bool) "different seed differs" true (events 500 3 <> events 500 4)

let test_stream_event_order () =
  let f = stream_fabric () in
  let s = Stream.create f (Rng.create 7) ~tenants:stream_tenants () in
  let es = take s 800 in
  let rec check prev seq = function
    | [] -> ()
    | (e : Stream.event) :: rest ->
        Alcotest.(check bool) "time monotone" true (e.Stream.ev_time >= prev);
        Alcotest.(check int) "seq dense" seq e.Stream.ev_seq;
        check e.Stream.ev_time (seq + 1) rest
  in
  check 0.0 0 es

let test_stream_membership_consistent () =
  (* Replay the stream's events into our own membership table; it must
     agree with [live_members] at every step, joins must add real
     non-members, leaves must never remove the source. *)
  let f = stream_fabric () in
  let eps = Array.to_list (Fabric.endpoints f) in
  let s = Stream.create f (Rng.create 21) ~tenants:stream_tenants () in
  let mine : (int, int list * int) Hashtbl.t = Hashtbl.create 64 in
  for _ = 1 to 1200 do
    let e = Stream.next s in
      (match e.Stream.ev_kind with
      | Stream.Create g ->
          Alcotest.(check bool) "fresh gid" false (Hashtbl.mem mine g.Spec.g_id);
          List.iter
            (fun m ->
              Alcotest.(check bool) "member is an endpoint" true
                (List.mem m eps))
            g.Spec.g_members;
          Hashtbl.replace mine g.Spec.g_id
            (List.sort compare g.Spec.g_members, g.Spec.g_source)
      | Stream.Join { gid; endpoint } ->
          let members, src = Hashtbl.find mine gid in
          Alcotest.(check bool) "join adds a non-member" false
            (List.mem endpoint members);
          Alcotest.(check bool) "join adds an endpoint" true
            (List.mem endpoint eps);
          Hashtbl.replace mine gid (List.sort compare (endpoint :: members), src)
      | Stream.Leave { gid; endpoint } ->
          let members, src = Hashtbl.find mine gid in
          Alcotest.(check bool) "leave removes a member" true
            (List.mem endpoint members);
          Alcotest.(check bool) "leave never removes the source" false
            (endpoint = src);
          Hashtbl.replace mine gid
            (List.filter (fun m -> m <> endpoint) members, src)
      | Stream.Send { gid; bytes } ->
          Alcotest.(check bool) "send targets a live group" true
            (Hashtbl.mem mine gid);
          Alcotest.(check bool) "send bytes positive" true (bytes > 0.0)
      | Stream.Depart { gid } ->
          Alcotest.(check bool) "depart targets a live group" true
            (Hashtbl.mem mine gid);
          Hashtbl.remove mine gid);
      Hashtbl.iter
        (fun gid (members, _) ->
          match Stream.live_members s ~gid with
          | None -> Alcotest.fail "stream dropped a live group"
          | Some ms ->
              Alcotest.(check (list int))
                (Printf.sprintf "group %d membership" gid)
                members ms)
        mine
  done;
  Alcotest.(check (list int)) "live view agrees" (Stream.live_groups s)
    (List.sort compare (Hashtbl.fold (fun gid _ acc -> gid :: acc) mine []))

(* Bit-for-bit pins of the event stream: FNV-1a digests of
   (ev_seq, ev_time "%h", kind_to_string) over 20k events, plus the
   live population ([live_count] and [live_groups]) every 5k events.
   Any change to the timer queue, the live-group bookkeeping or the
   RNG draw order shows up here. *)
let pin_mixes =
  let e2x () = Fabric.leaf_spine ~spines:4 ~leaves:8 ~hosts_per_leaf:4 () in
  [
    (* E22's long-hold ramp: no departures, a ~20k-entry timer queue. *)
    ( "e22 ramp",
      e2x,
      [
        Stream.tenant ~rate:4000.0 ~scale:3 ~bytes:1e6 ~hold:1e6 ~churn:5e-4
          ~sends:5e-4 ();
        Stream.tenant ~rate:100.0 ~scale:8 ~bytes:4e6 ~hold:1e6 ~churn:5e-4
          ~sends:1e-3 ~fragmentation:0.25 ();
      ] );
    (* E20's churn mix: departures, joins, leaves and sends interleave. *)
    ( "e20 churn",
      e2x,
      [
        Stream.tenant ~rate:400.0 ~scale:6 ~bytes:1e6 ~hold:0.5 ~churn:80.0
          ~sends:40.0 ();
        Stream.tenant ~rate:150.0 ~scale:12 ~bytes:4e6 ~hold:0.3 ~churn:30.0
          ~sends:20.0 ~fragmentation:0.5 ();
      ] );
    (* Groups spanning the whole fabric: the always-leave path, and
       joins near full size that exhaust their tries. *)
    ( "full fabric",
      stream_fabric,
      [
        Stream.tenant ~rate:50.0 ~scale:24 ~bytes:1e6 ~hold:0.4 ~churn:40.0
          ~sends:5.0 ();
      ] );
    (* Create/depart only. *)
    ( "no churn no sends",
      stream_fabric,
      [ Stream.tenant ~rate:200.0 ~scale:4 ~bytes:1e6 ~hold:0.1 () ] );
  ]

let stream_pin (_, fabric, tenants) seed =
  let fnv h s =
    String.fold_left
      (fun h c ->
        Int64.mul (Int64.logxor h (Int64.of_int (Char.code c))) 0x100000001b3L)
      h s
  in
  let s = Stream.create (fabric ()) (Rng.create seed) ~tenants () in
  let ev = ref 0xcbf29ce484222325L and live = ref 0xcbf29ce484222325L in
  for i = 1 to 20_000 do
    let e = Stream.next s in
    ev :=
      fnv !ev
        (Printf.sprintf "%d %h %s;" e.Stream.ev_seq e.Stream.ev_time
           (Stream.kind_to_string e.Stream.ev_kind));
    if i mod 5_000 = 0 then begin
      let groups = Stream.live_groups s in
      Alcotest.(check int) "live_count = |live_groups|" (List.length groups)
        (Stream.live_count s);
      live :=
        fnv !live
          (Printf.sprintf "%d:%s;" (Stream.live_count s)
             (String.concat "," (List.map string_of_int groups)))
    end
  done;
  Printf.sprintf "%016Lx/%016Lx" !ev !live

let stream_pins =
  [
    ("e22 ramp", 1, "dbc256cdf1dac3e6/447d56cb48931712");
    ("e22 ramp", 4200, "a43e9b51ca916246/3429f0aafc9a4325");
    ("e20 churn", 1, "239afa645e8af51b/9d6ce1c306780e11");
    ("e20 churn", 2000, "121a8bea5f0ba677/a3ad6cce3b671f36");
    ("full fabric", 1, "f388cc5dc9644298/56972ff8e525837f");
    ("full fabric", 7, "d4aede07d22b98c0/1d867409957be930");
    ("no churn no sends", 1, "8c729719de6f5880/8ff39acc9c67ab42");
    ("no churn no sends", 9, "2987f7fb9976f371/afe9f076284ec7d5");
  ]

let test_stream_pinned () =
  List.iter
    (fun (name, seed, expect) ->
      let mix = List.find (fun (n, _, _) -> n = name) pin_mixes in
      Alcotest.(check string)
        (Printf.sprintf "%s seed %d" name seed)
        expect (stream_pin mix seed))
    stream_pins

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "peel_workload"
    [
      ( "place",
        [
          Alcotest.test_case "contiguous aligned" `Quick test_place_contiguous_aligned;
          Alcotest.test_case "full fabric" `Quick test_place_full_fabric;
          Alcotest.test_case "errors" `Quick test_place_errors;
          Alcotest.test_case "mean_interarrival rejects" `Quick test_mean_interarrival_rejects;
          Alcotest.test_case "fragmentation count" `Quick test_place_fragmentation_preserves_count;
          Alcotest.test_case "fragmentation spreads" `Quick test_fragmentation_spreads_racks;
          qt prop_place_members_are_endpoints;
        ] );
      ( "poisson",
        [
          Alcotest.test_case "interarrival formula" `Quick test_mean_interarrival_formula;
          Alcotest.test_case "workload shape" `Quick test_poisson_broadcasts_shape;
          Alcotest.test_case "interarrival statistics" `Slow test_poisson_interarrival_statistics;
          Alcotest.test_case "deterministic" `Quick test_poisson_deterministic;
        ] );
      ( "stream",
        [
          Alcotest.test_case "batch seed-compatible" `Quick
            test_poisson_groups_match_broadcasts;
          Alcotest.test_case "create validates" `Quick test_stream_validates;
          Alcotest.test_case "deterministic" `Quick test_stream_deterministic;
          Alcotest.test_case "event order" `Quick test_stream_event_order;
          Alcotest.test_case "membership consistent" `Quick
            test_stream_membership_consistent;
          Alcotest.test_case "pinned digests" `Quick test_stream_pinned;
        ] );
    ]
