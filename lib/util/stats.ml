type summary = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Stats.percentile: empty sample";
  if q < 0.0 || q > 1.0 then invalid_arg "Stats.percentile: q out of range";
  if n = 1 then sorted.(0)
  else begin
    let rank = q *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = int_of_float (Float.ceil rank) in
    if lo = hi then sorted.(lo)
    else begin
      let w = rank -. float_of_int lo in
      (sorted.(lo) *. (1.0 -. w)) +. (sorted.(hi) *. w)
    end
  end

let summarize_array a =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.summarize: empty sample";
  let sorted = Array.copy a in
  Array.sort compare sorted;
  let sum = Array.fold_left ( +. ) 0.0 sorted in
  let mean = sum /. float_of_int n in
  let sq = Array.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.0)) 0.0 sorted in
  let stddev = if n > 1 then sqrt (sq /. float_of_int (n - 1)) else 0.0 in
  {
    count = n;
    mean;
    stddev;
    min = sorted.(0);
    max = sorted.(n - 1);
    p50 = percentile sorted 0.50;
    p90 = percentile sorted 0.90;
    p99 = percentile sorted 0.99;
  }

let summarize l = summarize_array (Array.of_list l)

let mean l =
  match l with
  | [] -> invalid_arg "Stats.mean: empty sample"
  | _ -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

module Online = struct
  type t = {
    mutable n : int;
    mutable mu : float;
    mutable m2 : float;
    mutable mn : float;
    mutable mx : float;
  }

  let create () = { n = 0; mu = 0.0; m2 = 0.0; mn = infinity; mx = neg_infinity }

  let add t x =
    t.n <- t.n + 1;
    let delta = x -. t.mu in
    t.mu <- t.mu +. (delta /. float_of_int t.n);
    t.m2 <- t.m2 +. (delta *. (x -. t.mu));
    if x < t.mn then t.mn <- x;
    if x > t.mx then t.mx <- x

  let count t = t.n
  let mean t = t.mu
  let variance t = if t.n > 1 then t.m2 /. float_of_int (t.n - 1) else 0.0
  let stddev t = sqrt (variance t)
  let min t = t.mn
  let max t = t.mx
end

module Histogram = struct
  type t = { lo : float; hi : float; counts : int array; mutable total : int }

  let create ~lo ~hi ~bins =
    if bins <= 0 then invalid_arg "Histogram.create: bins must be positive";
    if hi <= lo then invalid_arg "Histogram.create: empty range";
    { lo; hi; counts = Array.make bins 0; total = 0 }

  let add t x =
    let bins = Array.length t.counts in
    let raw =
      int_of_float (Float.floor ((x -. t.lo) /. (t.hi -. t.lo) *. float_of_int bins))
    in
    let i = if raw < 0 then 0 else if raw >= bins then bins - 1 else raw in
    t.counts.(i) <- t.counts.(i) + 1;
    t.total <- t.total + 1

  let counts t = Array.copy t.counts
  let total t = t.total
end
