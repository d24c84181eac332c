(* A flat binary heap in structure-of-arrays layout (the module name is
   historical: this has never been a pairing heap).  Each entry carries
   a monotonically increasing sequence number so that equal priorities
   pop in insertion order, keeping simulations deterministic across
   runs.

   The simulator's event queue reaches thousands of pending events on
   tree-shaped workloads, and the service's workload generator keeps
   one timer per live group — hundreds of thousands of entries, ~20
   levels deep.  Keeping priorities in an unboxed [float array] (with
   sequence numbers and payloads in parallel arrays) makes every
   comparison two adjacent array loads instead of two pointer chases
   through boxed entry records — the comparisons never touch the
   payload array.

   Sifts are hole-based: the entry being placed is held in locals while
   the entries it passes move one level into the hole, and it is
   written once, at its final slot.  A swap-based sift would rewrite all
   three columns twice per level, each payload write paying the GC
   write barrier. *)

type 'a t = {
  mutable prio : float array;
  mutable seq : int array;
  mutable value : 'a array;
  mutable size : int;
  mutable next_seq : int;
}

let create () =
  { prio = [||]; seq = [||]; value = [||]; size = 0; next_seq = 0 }

(* Grow the backing arrays, filling fresh payload slots with [seed];
   slots beyond [size] are never read. *)
let grow t seed =
  let cap = Array.length t.prio in
  let ncap = if cap = 0 then 16 else cap * 2 in
  let prio = Array.make ncap 0.0 in
  let seq = Array.make ncap 0 in
  let value = Array.make ncap seed in
  Array.blit t.prio 0 prio 0 t.size;
  Array.blit t.seq 0 seq 0 t.size;
  Array.blit t.value 0 value 0 t.size;
  t.prio <- prio;
  t.seq <- seq;
  t.value <- value

(* Move the entry in slot [src] into the hole at [dst]. *)
let[@inline] move t ~src ~dst =
  Array.unsafe_set t.prio dst (Array.unsafe_get t.prio src);
  Array.unsafe_set t.seq dst (Array.unsafe_get t.seq src);
  Array.unsafe_set t.value dst (Array.unsafe_get t.value src)

let[@inline] place t i p s v =
  Array.unsafe_set t.prio i p;
  Array.unsafe_set t.seq i s;
  Array.unsafe_set t.value i v

let push t p v =
  if t.size >= Array.length t.prio then grow t v;
  let s = t.next_seq in
  t.next_seq <- s + 1;
  let i = ref t.size in
  t.size <- t.size + 1;
  (* Sift up.  The newcomer's sequence number exceeds every stored
     one, so it orders before its parent exactly when its priority is
     strictly smaller. *)
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) lsr 1 in
    if p < Array.unsafe_get t.prio parent then begin
      move t ~src:parent ~dst:!i;
      i := parent
    end
    else continue := false
  done;
  place t !i p s v

(* [before t j p s]: does slot [j] order strictly before the entry
   [(p, s)]? *)
let[@inline] before t j p s =
  let pj = Array.unsafe_get t.prio j in
  pj < p || (pj = p && Array.unsafe_get t.seq j < s)

(* Sift the entry [(p, s, v)] down from the hole at the root, with the
   same comparisons a swap-based sift makes: the left child against
   the entry, then the right child against the smaller of the two. *)
let[@inline] sift_down t p s v =
  let n = t.size in
  let i = ref 0 in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 in
    let r = l + 1 in
    let c = if l < n && before t l p s then l else -1 in
    let c =
      if r >= n then c
      else if c < 0 then if before t r p s then r else -1
      else if before t r (Array.unsafe_get t.prio l) (Array.unsafe_get t.seq l)
      then r
      else l
    in
    if c >= 0 then begin
      move t ~src:c ~dst:!i;
      i := c
    end
    else continue := false
  done;
  place t !i p s v

let pop t =
  if t.size = 0 then None
  else begin
    let prio = t.prio.(0) and value = t.value.(0) in
    let last = t.size - 1 in
    t.size <- last;
    if last > 0 then
      sift_down t t.prio.(last) t.seq.(last) t.value.(last);
    Some (prio, value)
  end

let peek t = if t.size = 0 then None else Some (t.prio.(0), t.value.(0))
let is_empty t = t.size = 0
let length t = t.size
let clear t = t.size <- 0
