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
