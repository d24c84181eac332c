(* A flat binary heap in structure-of-arrays layout (the module name is
   historical: this has never been a pairing heap), plus a FIFO lane
   for pushes at the priority last popped.  Each heap entry carries a
   monotonically increasing stamp so that equal priorities pop in
   insertion order, keeping simulations deterministic across runs.

   The simulator's event queue reaches thousands of pending events on
   tree-shaped workloads, and the service's workload generator keeps
   one timer per live group — hundreds of thousands of entries, ~20
   levels deep.  Priorities, stamps and payloads sit in three unboxed
   columns ([float array], [int array], [int array]): a comparison is
   two adjacent loads, and moving an entry is three plain stores, with
   no GC write barrier because no column holds a pointer.

   Sifts are hole-based: the entry being placed is held in locals while
   the entries it passes move one level into the hole, and it is
   written once, at its final slot.

   The lane.  A discrete-event loop schedules many events at the
   instant it is executing (a zero-delay successor); such a push
   would sift up through the heap only to pop again soon after.  A
   push at the lane's priority appends to a ring buffer instead, in
   O(1).  The lane's priority is the last popped priority, re-set only
   at a pop that leaves the lane empty, so every lane entry has it.
   Invariant: a heap entry at the lane's priority is older than every
   lane entry.  A heap entry at that priority was pushed before the
   pop that set it (after that pop, such pushes take the lane), while
   every lane entry was pushed after that pop (the lane was empty
   then).  So the global minimum by (priority, push order) is the
   heap's top when its priority is at most the lane's, and the lane's
   head otherwise: no stamps are kept in the lane, and the pop order
   is exactly that of the heap alone, for any push sequence. *)

type t = {
  mutable prio : float array;
  mutable stamp : int array;
  mutable value : int array;
  mutable size : int;
  mutable next_stamp : int;
  lane_prio : float array;
      (* one cell, the lane's priority, kept unboxed: [nan] until the
         first pop, so no push matches it *)
  mutable lane : int array;  (* ring buffer; capacity a power of two *)
  mutable lane_head : int;
  mutable lane_len : int;
}

let create () =
  {
    prio = [||];
    stamp = [||];
    value = [||];
    size = 0;
    next_stamp = 0;
    lane_prio = [| nan |];
    lane = [||];
    lane_head = 0;
    lane_len = 0;
  }

(* Grow the backing arrays; slots beyond [size] are never read. *)
let grow t =
  let cap = Array.length t.prio in
  let ncap = if cap = 0 then 16 else cap * 2 in
  let prio = Array.make ncap 0.0 in
  let stamp = Array.make ncap 0 in
  let value = Array.make ncap 0 in
  Array.blit t.prio 0 prio 0 t.size;
  Array.blit t.stamp 0 stamp 0 t.size;
  Array.blit t.value 0 value 0 t.size;
  t.prio <- prio;
  t.stamp <- stamp;
  t.value <- value

(* Double the lane, unrolling the ring so its head lands at slot 0. *)
let grow_lane t =
  let cap = Array.length t.lane in
  let lane = Array.make (if cap = 0 then 16 else cap * 2) 0 in
  for i = 0 to t.lane_len - 1 do
    lane.(i) <- t.lane.((t.lane_head + i) land (cap - 1))
  done;
  t.lane <- lane;
  t.lane_head <- 0

(* Move the entry in slot [src] into the hole at [dst]. *)
let[@inline] move t ~src ~dst =
  Array.unsafe_set t.prio dst (Array.unsafe_get t.prio src);
  Array.unsafe_set t.stamp dst (Array.unsafe_get t.stamp src);
  Array.unsafe_set t.value dst (Array.unsafe_get t.value src)

let[@inline] place t i p s v =
  Array.unsafe_set t.prio i p;
  Array.unsafe_set t.stamp i s;
  Array.unsafe_set t.value i v

let push_heap t p v =
  if t.size >= Array.length t.prio then grow t;
  let s = t.next_stamp in
  t.next_stamp <- s + 1;
  let i = ref t.size in
  t.size <- t.size + 1;
  (* Sift up.  The newcomer's stamp exceeds every stored one, so it
     orders before its parent exactly when its priority is strictly
     smaller. *)
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

let push t p v =
  if p = Array.unsafe_get t.lane_prio 0 then begin
    if t.lane_len = Array.length t.lane then grow_lane t;
    Array.unsafe_set t.lane
      ((t.lane_head + t.lane_len) land (Array.length t.lane - 1))
      v;
    t.lane_len <- t.lane_len + 1
  end
  else push_heap t p v

(* [before t j p s]: does slot [j] order strictly before the entry
   [(p, s)]? *)
let[@inline] before t j p s =
  let pj = Array.unsafe_get t.prio j in
  pj < p || (pj = p && Array.unsafe_get t.stamp j < s)

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
      else if
        before t r (Array.unsafe_get t.prio l) (Array.unsafe_get t.stamp l)
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

(* Does the minimum sit at the heap's top (rather than the lane's
   head)?  A tie at the lane's priority goes to the heap: its entry is
   the older one (the invariant above). *)
let[@inline] top_in_heap t =
  t.size > 0
  && (t.lane_len = 0
     || Array.unsafe_get t.prio 0 <= Array.unsafe_get t.lane_prio 0)

let is_empty t = t.size = 0 && t.lane_len = 0
let length t = t.size + t.lane_len

let min_prio t =
  if top_in_heap t then Array.unsafe_get t.prio 0
  else if t.lane_len > 0 then Array.unsafe_get t.lane_prio 0
  else invalid_arg "Pairing_heap.min_prio: empty"

let pop_min t =
  if top_in_heap t then begin
    let p = Array.unsafe_get t.prio 0 and v = Array.unsafe_get t.value 0 in
    let last = t.size - 1 in
    t.size <- last;
    if last > 0 then
      sift_down t
        (Array.unsafe_get t.prio last)
        (Array.unsafe_get t.stamp last)
        (Array.unsafe_get t.value last);
    if t.lane_len = 0 then Array.unsafe_set t.lane_prio 0 p;
    v
  end
  else if t.lane_len > 0 then begin
    let v = Array.unsafe_get t.lane t.lane_head in
    t.lane_head <- (t.lane_head + 1) land (Array.length t.lane - 1);
    t.lane_len <- t.lane_len - 1;
    v
  end
  else invalid_arg "Pairing_heap.pop_min: empty"
