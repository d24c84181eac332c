module Bitset = Peel_util.Bits.Bitset
module Tree = Peel_steiner.Tree
module Graph = Peel_topology.Graph

type stage = Pending | Installed | Fallback

(* SoA store of live group state (in the style of Peel_sim.Soa): every
   per-group field is a column indexed by a slot, and member sets are
   fixed-width bitsets over the fabric's node ids.  Slots [0, used)
   have held a group; a free one has gid -1 and sits on [free], most
   recently freed first.  Columns grow geometrically in lock-step. *)
type t = {
  width : int; (* bitset universe: fabric node count *)
  index : (int, int) Hashtbl.t; (* gid -> slot *)
  mutable gids : int array; (* -1 on a free slot *)
  mutable sources : int array;
  mutable stages : Bytes.t;
  mutable in_pending : Bytes.t;
  mutable members : Bitset.t array;
  mutable trees : Tree.t array;
  mutable switches : int list array;
  mutable dists : int array array;
  mutable free : int list;
  mutable used : int;
  mutable live : int;
}

(* Fillers, told apart by address: the bitset of a slot that never held
   a group and the tree of a free slot. *)
let no_members = Bitset.create 0

let no_tree =
  Tree.of_parents (Graph.Builder.finish (Graph.Builder.create ())) ~root:0
    ~parents:[]

let create ~width () =
  let cap = 1024 in
  {
    width;
    index = Hashtbl.create cap;
    gids = Array.make cap (-1);
    sources = Array.make cap (-1);
    stages = Bytes.make cap '\000';
    in_pending = Bytes.make cap '\000';
    members = Array.make cap no_members;
    trees = Array.make cap no_tree;
    switches = Array.make cap [];
    dists = Array.make cap [||];
    free = [];
    used = 0;
    live = 0;
  }

let width t = t.width
let live t = t.live

let grow t =
  let cap = Array.length t.gids in
  let cap' = 2 * cap in
  let grow_arr a fill =
    let a' = Array.make cap' fill in
    Array.blit a 0 a' 0 cap;
    a'
  in
  let grow_bytes b =
    let b' = Bytes.make cap' '\000' in
    Bytes.blit b 0 b' 0 cap;
    b'
  in
  t.gids <- grow_arr t.gids (-1);
  t.sources <- grow_arr t.sources (-1);
  t.stages <- grow_bytes t.stages;
  t.in_pending <- grow_bytes t.in_pending;
  t.members <- grow_arr t.members no_members;
  t.trees <- grow_arr t.trees no_tree;
  t.switches <- grow_arr t.switches [];
  t.dists <- grow_arr t.dists [||]

let find t ~gid = Hashtbl.find_opt t.index gid

let stage_code = function Pending -> '\000' | Installed -> '\001' | Fallback -> '\002'

let stage_of_code = function
  | '\000' -> Pending
  | '\001' -> Installed
  | _ -> Fallback

let add t ~gid ~source ~members ~tree ~switches ~dist ~stage =
  if gid < 0 then invalid_arg "Group_table.add: gid must be >= 0";
  if Hashtbl.mem t.index gid then
    invalid_arg "Group_table.add: gid already present";
  let slot =
    match t.free with
    | s :: rest ->
        t.free <- rest;
        s
    | [] ->
        let s = t.used in
        if s = Array.length t.gids then grow t;
        t.used <- s + 1;
        s
  in
  t.live <- t.live + 1;
  t.gids.(slot) <- gid;
  t.sources.(slot) <- source;
  Bytes.set t.stages slot (stage_code stage);
  Bytes.set t.in_pending slot '\000';
  (* Recycle the previous tenant's bitset — clearing is a short
     memset, allocating is garbage. *)
  let bs =
    if t.members.(slot) != no_members then begin
      Bitset.clear t.members.(slot);
      t.members.(slot)
    end
    else begin
      let bs = Bitset.create t.width in
      t.members.(slot) <- bs;
      bs
    end
  in
  List.iter (fun m -> Bitset.add bs m) members;
  t.trees.(slot) <- tree;
  t.switches.(slot) <- switches;
  t.dists.(slot) <- dist;
  Hashtbl.replace t.index gid slot;
  slot

let remove t ~gid =
  match Hashtbl.find_opt t.index gid with
  | None -> false
  | Some slot ->
      Hashtbl.remove t.index gid;
      t.gids.(slot) <- -1;
      t.trees.(slot) <- no_tree;
      t.switches.(slot) <- [];
      t.dists.(slot) <- [||];
      t.free <- slot :: t.free;
      t.live <- t.live - 1;
      true

(* ---------------- slot accessors ---------------- *)

let gid t slot = t.gids.(slot)
let source t slot = t.sources.(slot)
let stage t slot = stage_of_code (Bytes.get t.stages slot)
let set_stage t slot s = Bytes.set t.stages slot (stage_code s)
let in_pending t slot = Bytes.get t.in_pending slot <> '\000'

let set_in_pending t slot b =
  Bytes.set t.in_pending slot (if b then '\001' else '\000')

let tree t slot =
  let tr = t.trees.(slot) in
  if tr == no_tree then invalid_arg "Group_table.tree: slot not live";
  tr

let set_tree t slot tr = t.trees.(slot) <- tr
let switches t slot = t.switches.(slot)
let set_switches t slot l = t.switches.(slot) <- l
let dist t slot = t.dists.(slot)

let members_bitset t slot =
  let bs = t.members.(slot) in
  if bs == no_members then
    invalid_arg "Group_table.members_bitset: slot never used";
  bs

let member_list t slot = Bitset.to_list (members_bitset t slot)
let add_member t slot m = Bitset.add (members_bitset t slot) m
let remove_member t slot m = Bitset.remove (members_bitset t slot) m

let set_members t slot ms =
  let bs = members_bitset t slot in
  Bitset.clear bs;
  List.iter (fun m -> Bitset.add bs m) ms

let fold f t init =
  let acc = ref init in
  for slot = 0 to t.used - 1 do
    if t.gids.(slot) >= 0 then acc := f !acc slot
  done;
  !acc
