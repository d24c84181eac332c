type policy = Lru | Bytes_weighted

let policy_to_string = function Lru -> "lru" | Bytes_weighted -> "bytes"

let policy_of_string = function
  | "lru" -> Some Lru
  | "bytes" | "bytes-weighted" | "bytes_weighted" -> Some Bytes_weighted
  | _ -> None

type entry = {
  mutable last_used : float;
  mutable bytes : float;
  mutable pos : int; (* index in the owning table's victim heap *)
}

(* Per-switch table: the entry map plus an indexed binary min-heap over
   (score, gid) so the eviction victim is O(log n) instead of the old
   O(capacity) fold.  The heap root is always the fold's answer — the
   minimum score under the policy, ties to the lowest group id — so
   victim selection is bit-identical to the scan it replaces and
   independent of insertion order.  Scores are mirrored in [hscore]
   (same index as [heap]) so sift comparisons read two flat arrays
   instead of chasing the entry map twice per comparison. *)
type table = {
  entries : (int, entry) Hashtbl.t;
  mutable heap : int array; (* group ids, heap-ordered *)
  mutable hscore : float array; (* score of [heap.(i)], kept in lockstep *)
  mutable hsize : int;
}

(* A shard owns a disjoint set of switches: their tables, reverse
   index and counters.  The aggregate counters are sums (and a max for
   the high-water mark) over shards, so every answer is the one a
   single-shard table gives.  [create] is the one-shard case. *)
type shard = {
  tables : (int, table) Hashtbl.t;
  (* group -> switches holding its entry, within this shard: makes
     [remove_group] O(entries of the group) instead of a scan over
     every switch table in the fleet.  A group touches at most a
     handful of switches, so a plain list beats a per-group table. *)
  rev : (int, int list) Hashtbl.t;
  mutable installs : int;
  mutable evictions : int;
  mutable max_used : int;
}

type t = {
  capacity : int;
  policy : policy;
  shards : shard array;
  shard_of : int -> int;
}

let new_shard () =
  {
    tables = Hashtbl.create 16;
    rev = Hashtbl.create 64;
    installs = 0;
    evictions = 0;
    max_used = 0;
  }

let create_sharded ~capacity ~policy ~shards ~shard_of =
  if capacity < 1 then invalid_arg "Tcam.create: capacity must be >= 1";
  if shards < 1 then invalid_arg "Tcam.create_sharded: shards must be >= 1";
  {
    capacity;
    policy;
    shards = Array.init shards (fun _ -> new_shard ());
    shard_of;
  }

let create ~capacity ~policy =
  create_sharded ~capacity ~policy ~shards:1 ~shard_of:(fun _ -> 0)

let capacity t = t.capacity
let policy t = t.policy

let installs t =
  Array.fold_left (fun acc s -> acc + s.installs) 0 t.shards

let evictions t =
  Array.fold_left (fun acc s -> acc + s.evictions) 0 t.shards

let max_used t =
  Array.fold_left (fun acc s -> max acc s.max_used) 0 t.shards

let shard t switch =
  let i = t.shard_of switch in
  if i < 0 || i >= Array.length t.shards then
    invalid_arg "Tcam: shard_of out of range";
  t.shards.(i)

let table sh switch =
  match Hashtbl.find_opt sh.tables switch with
  | Some tbl -> tbl
  | None ->
      let tbl =
        {
          entries = Hashtbl.create 8;
          heap = Array.make 8 0;
          hscore = Array.make 8 0.0;
          hsize = 0;
        }
      in
      Hashtbl.add sh.tables switch tbl;
      tbl

(* ---------------- victim heap ---------------- *)

let score t (e : entry) =
  match t.policy with Lru -> e.last_used | Bytes_weighted -> e.bytes

let entry_of tbl g =
  match Hashtbl.find_opt tbl.entries g with
  | Some e -> e
  | None -> assert false (* heap and entry map are kept in sync *)

(* Position-based comparison over the flat (score, gid) mirrors. *)
let less tbl i j =
  let sa = tbl.hscore.(i) and sb = tbl.hscore.(j) in
  sa < sb || (sa = sb && tbl.heap.(i) < tbl.heap.(j))

let hswap tbl i j =
  let gi = tbl.heap.(i) and gj = tbl.heap.(j) in
  let si = tbl.hscore.(i) and sj = tbl.hscore.(j) in
  tbl.heap.(i) <- gj;
  tbl.heap.(j) <- gi;
  tbl.hscore.(i) <- sj;
  tbl.hscore.(j) <- si;
  (entry_of tbl gi).pos <- j;
  (entry_of tbl gj).pos <- i

let rec sift_up tbl i =
  if i > 0 then begin
    let p = (i - 1) / 2 in
    if less tbl i p then begin
      hswap tbl i p;
      sift_up tbl p
    end
  end

let rec sift_down tbl i =
  let l = (2 * i) + 1 in
  if l < tbl.hsize then begin
    let r = l + 1 in
    let m = if r < tbl.hsize && less tbl r l then r else l in
    if less tbl m i then begin
      hswap tbl i m;
      sift_down tbl m
    end
  end

let heap_push t tbl g =
  if tbl.hsize = Array.length tbl.heap then begin
    let n = 2 * Array.length tbl.heap in
    let heap' = Array.make n 0 and score' = Array.make n 0.0 in
    Array.blit tbl.heap 0 heap' 0 tbl.hsize;
    Array.blit tbl.hscore 0 score' 0 tbl.hsize;
    tbl.heap <- heap';
    tbl.hscore <- score'
  end;
  let e = entry_of tbl g in
  tbl.heap.(tbl.hsize) <- g;
  tbl.hscore.(tbl.hsize) <- score t e;
  e.pos <- tbl.hsize;
  tbl.hsize <- tbl.hsize + 1;
  sift_up tbl (tbl.hsize - 1)

(* Remove the entry at heap slot [i] (swap-with-last then restore). *)
let heap_delete tbl i =
  tbl.hsize <- tbl.hsize - 1;
  if i <> tbl.hsize then begin
    let g = tbl.heap.(tbl.hsize) in
    tbl.heap.(i) <- g;
    tbl.hscore.(i) <- tbl.hscore.(tbl.hsize);
    (entry_of tbl g).pos <- i;
    sift_down tbl i;
    sift_up tbl i
  end

let reposition t tbl e =
  tbl.hscore.(e.pos) <- score t e;
  sift_down tbl e.pos;
  sift_up tbl e.pos

(* ---------------- reverse index ---------------- *)

let rev_add sh ~group ~switch =
  let sws = Option.value (Hashtbl.find_opt sh.rev group) ~default:[] in
  if not (List.mem switch sws) then Hashtbl.replace sh.rev group (switch :: sws)

let rev_remove sh ~group ~switch =
  match Hashtbl.find_opt sh.rev group with
  | None -> ()
  | Some sws -> (
      match List.filter (fun sw -> sw <> switch) sws with
      | [] -> Hashtbl.remove sh.rev group
      | sws' -> Hashtbl.replace sh.rev group sws')

(* ---------------- point operations ---------------- *)

let used t ~switch =
  match Hashtbl.find_opt (shard t switch).tables switch with
  | Some tbl -> Hashtbl.length tbl.entries
  | None -> 0

let holds t ~switch ~group =
  match Hashtbl.find_opt (shard t switch).tables switch with
  | Some tbl -> Hashtbl.mem tbl.entries group
  | None -> false

let drop_entry sh tbl ~switch ~group =
  let e = entry_of tbl group in
  heap_delete tbl e.pos;
  Hashtbl.remove tbl.entries group;
  rev_remove sh ~group ~switch

let add_entry t sh tbl ~now ~switch ~group =
  let e = { last_used = now; bytes = 0.0; pos = -1 } in
  Hashtbl.replace tbl.entries group e;
  heap_push t tbl group;
  rev_add sh ~group ~switch;
  sh.installs <- sh.installs + 1;
  let u = Hashtbl.length tbl.entries in
  if u > sh.max_used then sh.max_used <- u

let install t ~now ~switch ~group =
  let sh = shard t switch in
  let tbl = table sh switch in
  if Hashtbl.mem tbl.entries group then []
  else begin
    let victims = ref [] in
    while Hashtbl.length tbl.entries >= t.capacity do
      assert (tbl.hsize > 0);
      let g = tbl.heap.(0) in
      drop_entry sh tbl ~switch ~group:g;
      sh.evictions <- sh.evictions + 1;
      victims := g :: !victims
    done;
    add_entry t sh tbl ~now ~switch ~group;
    List.rev !victims
  end

let install_strict t ~now ~switch ~group =
  let sh = shard t switch in
  let tbl = table sh switch in
  if Hashtbl.mem tbl.entries group then true
  else if Hashtbl.length tbl.entries >= t.capacity then false
  else begin
    add_entry t sh tbl ~now ~switch ~group;
    true
  end

let touch t ~now ~switch ~group ~bytes =
  match Hashtbl.find_opt (shard t switch).tables switch with
  | None -> ()
  | Some tbl -> (
      match Hashtbl.find_opt tbl.entries group with
      | None -> ()
      | Some e ->
          e.last_used <- now;
          e.bytes <- e.bytes +. bytes;
          (* the entry's score changed under either policy *)
          reposition t tbl e)

let remove_at t ~switch ~group =
  let sh = shard t switch in
  match Hashtbl.find_opt sh.tables switch with
  | None -> false
  | Some tbl ->
      if Hashtbl.mem tbl.entries group then begin
        drop_entry sh tbl ~switch ~group;
        true
      end
      else false

let remove_group t ~group =
  let n = ref 0 in
  Array.iter
    (fun sh ->
      match Hashtbl.find_opt sh.rev group with
      | None -> ()
      | Some switches ->
          List.iter
            (fun sw ->
              let tbl = Hashtbl.find sh.tables sw in
              let e = entry_of tbl group in
              heap_delete tbl e.pos;
              Hashtbl.remove tbl.entries group;
              incr n)
            switches;
          Hashtbl.remove sh.rev group)
    t.shards;
  !n

let occupancy t =
  Array.to_list t.shards
  |> List.concat_map (fun sh ->
         Hashtbl.fold
           (fun sw tbl l -> (sw, Hashtbl.length tbl.entries) :: l)
           sh.tables [])
  |> List.sort compare

let groups_at t ~switch =
  match Hashtbl.find_opt (shard t switch).tables switch with
  | None -> []
  | Some tbl ->
      Hashtbl.fold (fun g _ l -> g :: l) tbl.entries [] |> List.sort compare
