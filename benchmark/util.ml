(* Clock, order statistics and digests shared by the benchmark modules. *)

let now_ns () = Monotonic_clock.now ()
let secs_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e9
let ns_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0)

(* Run [f] and return its result with the wall seconds it took. *)
let timed f =
  let t0 = now_ns () in
  let r = f () in
  (r, secs_since t0)

let sorted xs = List.sort compare xs

let median xs =
  match sorted xs with
  | [] -> nan
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Quartiles by Python's [statistics.quantiles(xs, n=4)] (the default
   "exclusive" method), so spreads printed here match the ones a Python
   reader computes from the same values.  Fewer than two values give
   the value itself for all three cut points. *)
let quartiles xs =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  if n = 0 then (nan, nan, nan)
  else if n = 1 then (a.(0), a.(0), a.(0))
  else begin
    let m = n + 1 in
    let cut i =
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = float_of_int ((i * m) - (j * 4)) in
      ((a.(j - 1) *. (4.0 -. delta)) +. (a.(j) *. delta)) /. 4.0
    in
    (cut 1, cut 2, cut 3)
  end

(* Inter-quartile distance as a share of the median. *)
let spread xs =
  let q1, q2, q3 = quartiles xs in
  if q2 = 0.0 then 0.0 else Float.abs (q3 -. q1) /. Float.abs q2

(* FNV-1a over strings: the digest of outputs that have no fingerprint
   of their own (CCT lists). *)
let fnv strings =
  let h = ref 0xcbf29ce484222325L in
  List.iter
    (String.iter (fun c ->
         h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L))
    strings;
  Printf.sprintf "%016Lx" !h

let float_key x = Printf.sprintf "%.17g" x

let nproc () = Domain.recommended_domain_count ()

(* Worker count every workload runs with: the core-count default a
   [peel_cli serve] or [simulate] user gets ([Pool.hardware_jobs], one
   core left to the rest of the host), capped at two. *)
let jobs () = min 2 (Peel_util.Pool.hardware_jobs ())

(* The worker count the traced run compares against one domain: two
   where the host has them. *)
let fanout_jobs () = max 1 (min 2 (nproc ()))

let word_mb words = float_of_int words *. float_of_int (Sys.word_size / 8) /. 1e6

(* Live major-heap data after a full collection: what the process
   still holds, independent of when collections happened to run. *)
let live_heap_mb () =
  Gc.full_major ();
  word_mb (Gc.stat ()).Gc.live_words

let write_file path contents =
  let dir = Filename.dirname path in
  if dir <> "." && dir <> "" && not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let oc = open_out path in
  output_string oc contents;
  close_out oc

let read_file path = In_channel.with_open_bin path In_channel.input_all
