module Bits = Peel_util.Bits

type prefix = { value : int; len : int }

let validate ~m p =
  if m < 0 || m > 24 then invalid_arg "Cover: m out of range (0..24)";
  if p.len < 0 || p.len > m then invalid_arg "Cover: prefix length out of range";
  if p.value < 0 || p.value >= Bits.pow2 p.len then
    invalid_arg "Cover: prefix value out of range"

(* Validation happens at construction (the cover builders);
   the per-id helpers below sit on the data-plane hot path and trust
   their input. *)
let block_size ~m p = Bits.pow2 (m - p.len)

let block_start ~m p = p.value * Bits.pow2 (m - p.len)

let covers ~m p id =
  id >= 0 && id < Bits.pow2 m && id lsr (m - p.len) = p.value

let expand ~m p =
  let start = block_start ~m p and size = block_size ~m p in
  List.init size (fun i -> start + i)

let parent p =
  if p.len = 0 then None else Some { value = p.value / 2; len = p.len - 1 }

let sibling p =
  if p.len = 0 then None else Some { value = p.value lxor 1; len = p.len }

let is_ancestor a p =
  a.len <= p.len && p.value lsr (p.len - a.len) = a.value

let to_string ~m p =
  validate ~m p;
  String.init m (fun i ->
      if i < p.len then if Bits.bit p.value (p.len - 1 - i) then '1' else '0'
      else '*')

let check_targets ~m targets =
  let size = Bits.pow2 m in
  List.iter
    (fun t ->
      if t < 0 || t >= size then invalid_arg "Cover: target outside identifier space")
    targets;
  let tgt = Array.make size false in
  List.iter (fun t -> tgt.(t) <- true) targets;
  tgt

(* Prefix-summed target counts: [cs.(i)] is the number of distinct
   targets below [i], so a block's count is one subtraction. *)
let target_counts ~m targets =
  let size = Bits.pow2 m in
  let cs = Array.make (size + 1) 0 in
  List.iter
    (fun t ->
      if t < 0 || t >= size then invalid_arg "Cover: target outside identifier space";
      cs.(t + 1) <- 1)
    targets;
  for i = 1 to size do
    cs.(i) <- cs.(i) + cs.(i - 1)
  done;
  cs

let exact_cover ~m targets =
  if m < 0 || m > 24 then invalid_arg "Cover: m out of range (0..24)";
  let cs = target_counts ~m targets in
  let rec go value len acc =
    let size = Bits.pow2 (m - len) in
    let start = value * size in
    let count = cs.(start + size) - cs.(start) in
    if count = 0 then acc
    else if count = size then { value; len } :: acc
    else go ((2 * value) + 1) (len + 1) (go (2 * value) (len + 1) acc)
  in
  List.rev (go 0 0 [])

let budgeted_cover ~m ~budget targets =
  if budget < 1 then invalid_arg "Cover.budgeted_cover: budget >= 1";
  if m < 0 || m > 24 then invalid_arg "Cover: m out of range (0..24)";
  let cs = target_counts ~m targets in
  (* The objective is lexicographic (over-coverage, prefix count).  A
     cover within budget [b] uses at most [b] prefixes, so it packs into
     one int as [over * w + count] with [w = budget + 1]: int order is
     the lexicographic order and int addition adds both parts.  [inf]
     marks "no cover" (a block with targets at budget 0). *)
  let w = budget + 1 in
  let inf = max_int in
  let add x y = if x = inf || y = inf then inf else x + y in
  (* Each block holding targets gets a slot, in post order: a row of
     [w] values, the best cover of the block within each budget 0 ..
     [budget], and its two children's slots.  A block without targets
     is slot -1 and costs 0 at every budget. *)
  let cap = Int.min ((m + 1) * cs.(Bits.pow2 m)) (Bits.pow2 (m + 1) - 1) in
  let rows = Array.make (cap * w) 0 in
  let left = Array.make cap (-1) and right = Array.make cap (-1) in
  let slots = ref 0 in
  let value_at slot b = if slot < 0 then 0 else rows.((slot * w) + b) in
  let count_of value len =
    let size = Bits.pow2 (m - len) in
    let start = value * size in
    cs.(start + size) - cs.(start)
  in
  let whole value len = ((Bits.pow2 (m - len) - count_of value len) * w) + 1 in
  let rec solve value len =
    if count_of value len = 0 then -1
    else begin
      let l = if len < m then solve (2 * value) (len + 1) else -1 in
      let r = if len < m then solve ((2 * value) + 1) (len + 1) else -1 in
      let s = !slots in
      incr slots;
      left.(s) <- l;
      right.(s) <- r;
      let base = s * w in
      let whole = whole value len in
      rows.(base) <- inf;
      for b = 1 to budget do
        (* One prefix over the whole block, or a split between the two
           children; a smaller budget's cover also fits. *)
        let best = ref whole in
        if len < m then
          for b1 = 0 to b do
            let v = add (value_at l b1) (value_at r (b - b1)) in
            if v < !best then best := v
          done;
        rows.(base + b) <- Int.min !best rows.(base + b - 1)
      done;
      s
    end
  in
  let root = solve 0 0 in
  (* Reconstruct the choice achieving the root's value at [budget]:
     the whole block when it is optimal, else the first split that
     matches, else the same block at a smaller budget. *)
  let rec rebuild slot value len b acc =
    if slot < 0 then acc
    else begin
      let a = rows.((slot * w) + b) in
      if a = whole value len then { value; len } :: acc
      else begin
        assert (len < m);
        let l = left.(slot) and r = right.(slot) in
        let b1 = ref 0 in
        while !b1 <= b && add (value_at l !b1) (value_at r (b - !b1)) <> a do
          incr b1
        done;
        if !b1 > b then rebuild slot value len (b - 1) acc
        else
          rebuild r ((2 * value) + 1) (len + 1) (b - !b1)
            (rebuild l (2 * value) (len + 1) !b1 acc)
      end
    end
  in
  List.rev (rebuild root 0 0 budget [])

let covered_set ~m prefixes =
  List.concat_map (expand ~m) prefixes |> List.sort_uniq compare

let over_coverage ~m prefixes ~targets =
  let tgt = check_targets ~m targets in
  List.length (List.filter (fun id -> not tgt.(id)) (covered_set ~m prefixes))

let is_cover ~m prefixes ~targets =
  let covered = covered_set ~m prefixes in
  List.for_all (fun t -> List.mem t covered) (List.sort_uniq compare targets)
