(* Generic slot arena with free-list recycling and generation counters.
   Columns of actual data live outside (SoA style, as in Peel_sim.Soa);
   the arena only hands out slot indices and tracks liveness.  A slot's
   generation bumps on every [free], so a stale handle (slot, gen) from
   before recycling can be detected — the service's SVC004 departed-
   group lint leans on this. *)

type t = {
  mutable cap : int;
  mutable gen : int array;      (* generation per slot; bumped on free *)
  mutable live : Bytes.t;       (* 1 = allocated, 0 = free *)
  mutable free_list : int list; (* recycled slots, most recently freed first *)
  mutable next_fresh : int;     (* first never-allocated slot *)
  mutable n_live : int;
}

let create ?(initial = 16) () =
  let cap = max 1 initial in
  {
    cap;
    gen = Array.make cap 0;
    live = Bytes.make cap '\000';
    free_list = [];
    next_fresh = 0;
    n_live = 0;
  }

let capacity t = t.cap
let live_count t = t.n_live

let grow t want =
  let cap' = ref (max 1 t.cap) in
  while !cap' < want do
    cap' := !cap' * 2
  done;
  let gen' = Array.make !cap' 0 in
  Array.blit t.gen 0 gen' 0 t.cap;
  let live' = Bytes.make !cap' '\000' in
  Bytes.blit t.live 0 live' 0 t.cap;
  t.gen <- gen';
  t.live <- live';
  t.cap <- !cap'

let alloc t =
  let slot =
    match t.free_list with
    | s :: rest ->
        t.free_list <- rest;
        s
    | [] ->
        let s = t.next_fresh in
        if s >= t.cap then grow t (s + 1);
        t.next_fresh <- s + 1;
        s
  in
  Bytes.unsafe_set t.live slot '\001';
  t.n_live <- t.n_live + 1;
  (slot, t.gen.(slot))

let is_live t slot =
  slot >= 0 && slot < t.next_fresh && Bytes.unsafe_get t.live slot = '\001'

let generation t slot =
  if slot < 0 || slot >= t.cap then invalid_arg "Arena.generation";
  t.gen.(slot)

let valid t ~slot ~gen = is_live t slot && t.gen.(slot) = gen

let free t slot =
  if not (is_live t slot) then invalid_arg "Arena.free: slot not live";
  Bytes.unsafe_set t.live slot '\000';
  t.gen.(slot) <- t.gen.(slot) + 1;
  t.free_list <- slot :: t.free_list;
  t.n_live <- t.n_live - 1

let iter_live f t =
  for s = 0 to t.next_fresh - 1 do
    if Bytes.unsafe_get t.live s = '\001' then f s
  done

