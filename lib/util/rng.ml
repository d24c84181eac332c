type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let create seed = { state = mix64 (Int64.of_int seed) }

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let split t = { state = bits64 t }
let copy t = { state = t.state }

let int t n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling to avoid modulo bias. *)
  let nl = Int64.of_int n in
  let rec go () =
    let r = Int64.shift_right_logical (bits64 t) 1 in
    let v = Int64.rem r nl in
    if Int64.(sub (add r (sub nl 1L)) v) < 0L then go () else Int64.to_int v
  in
  go ()

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: empty range";
  lo + int t (hi - lo + 1)

let float t x =
  (* 53 random bits into [0,1). *)
  let r = Int64.shift_right_logical (bits64 t) 11 in
  Int64.to_float r /. 9007199254740992.0 *. x

let bool t = Int64.logand (bits64 t) 1L = 1L

let exponential t ~mean =
  let rec positive_uniform () =
    let u = float t 1.0 in
    if u > 0.0 then u else positive_uniform ()
  in
  -.mean *. log (positive_uniform ())

let normal t ~mu ~sigma =
  let rec draw () =
    let u1 = float t 1.0 and u2 = float t 1.0 in
    if u1 <= 0.0 then draw ()
    else mu +. (sigma *. sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2))
  in
  draw ()

let normal_pos t ~mu ~sigma = Float.max 0.0 (normal t ~mu ~sigma)

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let sample_without_replacement t n k =
  if k < 0 || k > n then invalid_arg "Rng.sample_without_replacement";
  (* Floyd's algorithm: O(k) expected insertions. *)
  let chosen = Hashtbl.create (2 * k) in
  for j = n - k to n - 1 do
    let r = int t (j + 1) in
    if Hashtbl.mem chosen r then Hashtbl.replace chosen j ()
    else Hashtbl.replace chosen r ()
  done;
  Hashtbl.fold (fun x () acc -> x :: acc) chosen []
  |> List.sort compare
