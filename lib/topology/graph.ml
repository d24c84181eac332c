type kind = Gpu | Host | Tor | Agg | Core | Spine

let kind_to_string = function
  | Gpu -> "gpu"
  | Host -> "host"
  | Tor -> "tor"
  | Agg -> "agg"
  | Core -> "core"
  | Spine -> "spine"

let kind_is_switch = function
  | Tor | Agg | Core | Spine -> true
  | Gpu | Host -> false

type node = { id : int; kind : kind; pod : int; idx : int }

type link = {
  link_id : int;
  src : int;
  dst : int;
  bandwidth : float;
  latency : float;
  mutable up : bool;
}

type t = {
  nodes : node array;
  links : link array;
  adj : (int * int) array array; (* out-edges: (dst node, link id) *)
}

module Builder = struct
  type b = {
    mutable rev_nodes : node list;
    mutable rev_links : link list;
    mutable n_nodes : int;
    mutable n_links : int;
  }

  type t = b

  let create () = { rev_nodes = []; rev_links = []; n_nodes = 0; n_links = 0 }

  let add_node b kind ~pod ~idx =
    let id = b.n_nodes in
    b.rev_nodes <- { id; kind; pod; idx } :: b.rev_nodes;
    b.n_nodes <- id + 1;
    id

  let add_duplex b ?(latency = 500e-9) ~bandwidth a c =
    if a = c then invalid_arg "Graph.Builder.add_duplex: self-loop";
    (* Negated so NaN fails too.  Zero bandwidth stays constructible:
       SIM001 is the check that reports it. *)
    if not (bandwidth >= 0.0 && bandwidth < infinity) then
      invalid_arg "Graph.Builder.add_duplex: bandwidth must be finite and >= 0";
    if not (latency >= 0.0 && latency < infinity) then
      invalid_arg "Graph.Builder.add_duplex: latency must be finite and >= 0";
    let fwd = b.n_links in
    let bwd = fwd + 1 in
    b.rev_links <-
      { link_id = bwd; src = c; dst = a; bandwidth; latency; up = true }
      :: { link_id = fwd; src = a; dst = c; bandwidth; latency; up = true }
      :: b.rev_links;
    b.n_links <- b.n_links + 2;
    fwd

  let finish b =
    let nodes = Array.of_list (List.rev b.rev_nodes) in
    let links = Array.of_list (List.rev b.rev_links) in
    let degree = Array.make (Array.length nodes) 0 in
    Array.iter (fun l -> degree.(l.src) <- degree.(l.src) + 1) links;
    let adj = Array.map (fun d -> Array.make d (0, 0)) degree in
    let fill = Array.make (Array.length nodes) 0 in
    Array.iter
      (fun l ->
        adj.(l.src).(fill.(l.src)) <- (l.dst, l.link_id);
        fill.(l.src) <- fill.(l.src) + 1)
      links;
    (* Sort out-edges by (dst, link id) so traversal order is stable and
       independent of construction order. *)
    Array.iter (fun edges -> Array.sort compare edges) adj;
    { nodes; links; adj }
end

let num_nodes t = Array.length t.nodes
let num_links t = Array.length t.links
let node t i = t.nodes.(i)
let link t i = t.links.(i)
let nodes t = t.nodes
let links t = t.links
let peer_link id = id lxor 1
let out_links t v = t.adj.(v)
let link_up t i = t.links.(i).up
let degree t v = Array.length t.adj.(v)

let link_between t a c =
  let best = ref None in
  Array.iter
    (fun (dst, lid) ->
      if dst = c && t.links.(lid).up then
        match !best with
        | Some b when b <= lid -> ()
        | _ -> best := Some lid)
    t.adj.(a);
  !best

let fail_link t i =
  t.links.(i).up <- false;
  t.links.(peer_link i).up <- false

let recover_link t i =
  t.links.(i).up <- true;
  t.links.(peer_link i).up <- true

let restore_all t = Array.iter (fun l -> l.up <- true) t.links

let duplex_ids t =
  Array.init (num_links t / 2) (fun i -> 2 * i)

let unreachable = max_int

(* The one BFS kernel.  [queue.(0 .. tail-1)] is the FIFO and also the
   list of every node labelled so far, so a restart clears exactly the
   labels it wrote.  [queue.(head)] is the node being expanded. *)
type bfs = {
  graph : t;
  dist : int array;
  queue : int array;
  mutable src : int;  (* -1 when no search is live *)
  mutable head : int;
  mutable tail : int;
}

let bfs_create t =
  let n = num_nodes t in
  {
    graph = t;
    dist = Array.make n unreachable;
    queue = Array.make n 0;
    src = -1;
    head = 0;
    tail = 0;
  }

let bfs_reset b =
  for i = 0 to b.tail - 1 do
    b.dist.(b.queue.(i)) <- unreachable
  done;
  b.src <- -1;
  b.head <- 0;
  b.tail <- 0

let bfs_start b src =
  if src < 0 || src >= num_nodes b.graph then invalid_arg "Graph.bfs: bad source";
  bfs_reset b;
  b.dist.(src) <- 0;
  b.queue.(0) <- src;
  b.src <- src;
  b.tail <- 1

(* Expand queued nodes in FIFO and adjacency order until [dst] carries
   a label or the queue runs dry ([dst] = -1 never stops early).  A stop
   leaves [head] on the node whose expansion labelled [dst]; resuming
   re-scans that node's adjacency, skipping the neighbours it already
   labelled. *)
let bfs_run b dst =
  let { graph = g; dist; queue; _ } = b in
  let found = ref (dst >= 0 && dist.(dst) <> unreachable) in
  while (not !found) && b.head < b.tail do
    let v = queue.(b.head) in
    let dw = dist.(v) + 1 in
    let edges = g.adj.(v) in
    let i = ref 0 in
    while (not !found) && !i < Array.length edges do
      let w, lid = edges.(!i) in
      if dist.(w) = unreachable && g.links.(lid).up then begin
        dist.(w) <- dw;
        queue.(b.tail) <- w;
        b.tail <- b.tail + 1;
        if w = dst then found := true
      end;
      incr i
    done;
    if not !found then b.head <- b.head + 1
  done

let bfs_reach b ~src ~dst =
  if dst < 0 || dst >= num_nodes b.graph then invalid_arg "Graph.bfs_reach: bad destination";
  (* [bfs_start] rejects a bad source; -1 must not match an idle scratch. *)
  if src < 0 || src <> b.src then bfs_start b src;
  bfs_run b dst;
  b.dist

let bfs_dist t src =
  let b = bfs_create t in
  bfs_start b src;
  bfs_run b (-1);
  b.dist

let hop_layers t src =
  let dist = bfs_dist t src in
  let maxd =
    Array.fold_left
      (fun acc d -> if d <> unreachable && d > acc then d else acc)
      0 dist
  in
  let layers = Array.make (maxd + 1) [] in
  (* Walk ids downward so each layer list ends up ascending. *)
  for v = num_nodes t - 1 downto 0 do
    let d = dist.(v) in
    if d <> unreachable then layers.(d) <- v :: layers.(d)
  done;
  layers

let shortest_path_from_dist t ~dist src dst =
  let n = num_nodes t in
  if dst < 0 || dst >= n then invalid_arg "Graph.shortest_path: bad destination";
  if dist.(dst) = unreachable then None
  else begin
    (* Walk back from [dst], always taking the lowest-id predecessor at
       distance d-1; adjacency is sorted so scanning in order suffices. *)
    let rec back v acc =
      if v = src then v :: acc
      else begin
        let dv = dist.(v) in
        let pred = ref (-1) in
        Array.iter
          (fun (w, lid) ->
            if !pred = -1 && t.links.(peer_link lid).up && dist.(w) = dv - 1 then
              pred := w)
          t.adj.(v);
        assert (!pred >= 0);
        back !pred (v :: acc)
      end
    in
    Some (back dst [])
  end

let shortest_path t src dst =
  shortest_path_from_dist t ~dist:(bfs_dist t src) src dst

(* SplitMix64 finalizer, for ECMP hashing.  Inlined into [ecmp_hash],
   every [Int64] stays unboxed. *)
let[@inline] mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

(* The finalizer folded over (src, dst, v, salt) from a fixed seed. *)
let ecmp_hash src dst v salt =
  let h = mix64 (Int64.add 0x9E3779B97F4A7C15L (Int64.of_int src)) in
  let h = mix64 (Int64.add h (Int64.of_int dst)) in
  let h = mix64 (Int64.add h (Int64.of_int v)) in
  let h = mix64 (Int64.add h (Int64.of_int salt)) in
  Int64.to_int (Int64.shift_right_logical h 1) land max_int

(* Whether out-edge [(w, lid)] of a node at distance [dv] leads back to
   a live predecessor. *)
let[@inline] ecmp_pred t dist dv (w, lid) =
  t.links.(peer_link lid).up && dist.(w) = dv - 1

let shortest_path_ecmp_from_dist t ~dist src dst ~salt =
  let n = num_nodes t in
  if dst < 0 || dst >= n then invalid_arg "Graph.shortest_path_ecmp: bad destination";
  if dist.(dst) = unreachable then None
  else begin
    (* Count the live predecessors at distance d-1, then take the
       (hash mod count)-th of them in adjacency order. *)
    let rec back v acc =
      if v = src then v :: acc
      else begin
        let dv = dist.(v) in
        let edges = t.adj.(v) in
        let count = ref 0 in
        for i = 0 to Array.length edges - 1 do
          if ecmp_pred t dist dv edges.(i) then incr count
        done;
        assert (!count > 0);
        let skip = ref (ecmp_hash src dst v salt mod !count) in
        let i = ref 0 in
        while not (ecmp_pred t dist dv edges.(!i) && !skip = 0) do
          if ecmp_pred t dist dv edges.(!i) then decr skip;
          incr i
        done;
        back (fst edges.(!i)) (v :: acc)
      end
    in
    Some (back dst [])
  end

let shortest_path_ecmp t src dst ~salt =
  shortest_path_ecmp_from_dist t ~dist:(bfs_dist t src) src dst ~salt

let connected t nodes =
  match nodes with
  | [] | [ _ ] -> true
  | first :: rest ->
      let dist = bfs_dist t first in
      List.for_all (fun v -> dist.(v) <> unreachable) rest
