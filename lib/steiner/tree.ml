open Peel_topology

(* Members sorted ascending, with aligned columns: [up.(i)] is the
   index of member [i]'s parent (-1 for the root) and [link.(i)] its
   parent link.  Children sit in CSR form: member [i]'s children are
   the member indices [kids.(off.(i)) .. kids.(off.(i+1) - 1)], in
   ascending node order. *)
type t = {
  root : int;
  nodes : int array;
  up : int array;
  link : int array;
  off : int array;
  kids : int array;
}

let root t = t.root

(* Index of [v] in the ascending [nodes], or -1. *)
let index nodes (v : int) =
  let lo = ref 0 and hi = ref (Array.length nodes) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if nodes.(mid) < v then lo := mid + 1 else hi := mid
  done;
  if !lo < Array.length nodes && nodes.(!lo) = v then !lo else -1

let find t v = index t.nodes v

(* The rules every binding [node -> (parent, link)] obeys, whichever
   constructor [fn] reads it: no binding for the root, one binding per
   node ([dup] says whether [node] is bound already), and a link that
   runs parent->node.  A chain that misses the tree is reported with
   [orphan]. *)
let reject fn what = invalid_arg (fn ^ ": " ^ what)
let orphan fn = reject fn "parent chain does not reach the root"

let check_binding fn g ~root ~node ~parent ~link ~dup =
  if node = root then reject fn "root cannot have a parent";
  if dup then reject fn "duplicate binding for a node";
  let l = Graph.link g link in
  if l.Graph.src <> parent || l.Graph.dst <> node then
    reject fn "link does not run parent->node"

(* The CSR children of parent column [up]: count, prefix-sum, then
   place each child at its parent's cursor [off.(p)], which ends on
   [off.(p+1)]; shifting [off] right by one restores the starts. *)
let with_children ~root ~nodes ~up ~link =
  let m = Array.length nodes in
  let off = Array.make (m + 1) 0 in
  for i = 0 to m - 1 do
    let p = up.(i) in
    if p >= 0 then off.(p + 1) <- off.(p + 1) + 1
  done;
  for i = 1 to m do
    off.(i) <- off.(i) + off.(i - 1)
  done;
  let kids = Array.make (m - 1) 0 in
  for i = 0 to m - 1 do
    let p = up.(i) in
    if p >= 0 then begin
      kids.(off.(p)) <- i;
      off.(p) <- off.(p) + 1
    end
  done;
  for i = m downto 1 do
    off.(i) <- off.(i - 1)
  done;
  off.(0) <- 0;
  { root; nodes; up; link; off; kids }

let of_parents g ~root ~parents =
  let fn = "Tree.of_parents" in
  (* The bindings go into int columns, sorted through an index
     permutation, so no boxed value is stored into a fresh array. *)
  let b = List.length parents in
  let bnode = Array.make b 0 and bparent = Array.make b 0 and blink = Array.make b 0 in
  List.iteri
    (fun i (node, (parent, lid)) ->
      bnode.(i) <- node;
      bparent.(i) <- parent;
      blink.(i) <- lid)
    parents;
  let order = Array.init b Fun.id in
  Array.sort (fun i j -> compare (bnode.(i) : int) bnode.(j)) order;
  (* The root slots in after the bindings below it. *)
  let r = Array.fold_left (fun acc v -> if v < root then acc + 1 else acc) 0 bnode in
  let m = b + 1 in
  let nodes = Array.make m root and link = Array.make m (-1) in
  let parent_node = Array.make m (-1) in
  Array.iteri
    (fun k i ->
      let node = bnode.(i) in
      check_binding fn g ~root ~node ~parent:bparent.(i) ~link:blink.(i)
        ~dup:(k > 0 && bnode.(order.(k - 1)) = node);
      let j = if k < r then k else k + 1 in
      nodes.(j) <- node;
      link.(j) <- blink.(i);
      parent_node.(j) <- bparent.(i))
    order;
  (* Parent nodes become parent indices in place. *)
  let up = parent_node in
  Array.iteri
    (fun j p ->
      if p >= 0 then begin
        let i = index nodes p in
        if i < 0 then orphan fn;
        up.(j) <- i
      end)
    up;
  (* Every parent chain must reach the root without cycling: walk up
     from each member until the root or a verified member, marking the
     walk in progress (1) and, once it ends well, verified (2). *)
  let state = Bytes.make m '\000' in
  for i = 0 to m - 1 do
    let j = ref i in
    while Bytes.get state !j = '\000' do
      Bytes.set state !j '\001';
      if up.(!j) >= 0 then j := up.(!j)
    done;
    if Bytes.get state !j = '\001' && up.(!j) >= 0 then orphan fn;
    let j = ref i in
    while Bytes.get state !j = '\001' do
      Bytes.set state !j '\002';
      if up.(!j) >= 0 then j := up.(!j)
    done
  done;
  with_children ~root ~nodes ~up ~link

(* [derive]'s slots number the candidate members: [prev]'s member [i]
   is slot [i], the [k]-th fresh binding slot [m + k].  Its int column
   [ix] holds, per slot, -1 until the slot is kept and then its index
   in the result, followed by the slot of each fresh binding's parent
   (-1 when the parent is neither a member of [prev] nor fresh).  The
   helpers are top-level so a call allocates no closure. *)

let rec fresh_slot ~m v k = function
  | [] -> -1
  | (u, _) :: rest -> if u = v then m + k else fresh_slot ~m v (k + 1) rest

let slot prev ~fresh v =
  let i = index prev.nodes v in
  if i >= 0 then i else fresh_slot ~m:(Array.length prev.nodes) v 0 fresh

(* Keep slot [s] and its chain up to the first slot already kept. *)
let rec keep prev ix ~f s =
  if s >= 0 && ix.(s) < 0 then begin
    ix.(s) <- 0;
    let m = Array.length prev.nodes in
    keep prev ix ~f (if s < m then prev.up.(s) else ix.(s + f))
  end

let derive g ~prev ~fresh ~dests =
  let fn = "Tree.derive" in
  let root = prev.root and pnodes = prev.nodes in
  let m = Array.length pnodes and f = List.length fresh in
  let ix = Array.make (m + f + f) (-1) in
  (* [prev] is valid by construction, so only the fresh bindings are
     checked: each binds a new node once, over a link that runs
     parent->node, and its chain climbs into [prev] within [f] hops
     (a longer one cycles among the fresh nodes). *)
  let rest = ref fresh in
  for k = 0 to f - 1 do
    let node, (parent, link) = List.hd !rest in
    rest := List.tl !rest;
    check_binding fn g ~root ~node ~parent ~link
      ~dup:(index pnodes node >= 0 || fresh_slot ~m node 0 fresh <> m + k);
    ix.(m + f + k) <- slot prev ~fresh parent
  done;
  for k = 0 to f - 1 do
    let s = ref (m + k) and hops = ref 0 in
    while !s >= m && !hops <= f do
      s := ix.(!s + f);
      incr hops
    done;
    if !s < 0 || !s >= m then orphan fn
  done;
  (* Keep the root and every slot on a destination's chain to it; a
     destination that is not a member is skipped. *)
  keep prev ix ~f (index pnodes root);
  let rest = ref dests in
  while !rest != [] do
    keep prev ix ~f (slot prev ~fresh (List.hd !rest));
    rest := List.tl !rest
  done;
  let n = ref 0 in
  for s = 0 to m + f - 1 do
    if ix.(s) = 0 then incr n
  done;
  let n = !n in
  let nodes = Array.make n 0 and up = Array.make n 0 and link = Array.make n (-1) in
  (* The kept fresh bindings go to the front of the columns, sorted by
     node (insertion: a climb binds a handful), as node, slot and link. *)
  let c = ref 0 and rest = ref fresh in
  for k = 0 to f - 1 do
    let node, (_, lid) = List.hd !rest in
    rest := List.tl !rest;
    if ix.(m + k) = 0 then begin
      let j = ref !c in
      while !j > 0 && nodes.(!j - 1) > node do
        nodes.(!j) <- nodes.(!j - 1);
        up.(!j) <- up.(!j - 1);
        link.(!j) <- link.(!j - 1);
        decr j
      done;
      nodes.(!j) <- node;
      up.(!j) <- m + k;
      link.(!j) <- lid;
      incr c
    end
  done;
  (* Merge them from the back with [prev]'s kept members, so no write
     lands on an unread fresh entry; [up] holds each member's slot and
     [ix] learns each slot's index. *)
  let i = ref (m - 1) and j = ref (!c - 1) in
  for w = n - 1 downto 0 do
    while !i >= 0 && ix.(!i) < 0 do
      decr i
    done;
    if !j >= 0 && (!i < 0 || nodes.(!j) > pnodes.(!i)) then begin
      let s = up.(!j) in
      nodes.(w) <- nodes.(!j);
      up.(w) <- s;
      link.(w) <- link.(!j);
      ix.(s) <- w;
      decr j
    end
    else begin
      nodes.(w) <- pnodes.(!i);
      up.(w) <- !i;
      link.(w) <- prev.link.(!i);
      ix.(!i) <- w;
      decr i
    end
  done;
  (* Slots become parent indices in place. *)
  for w = 0 to n - 1 do
    let s = up.(w) in
    let ps = if s < m then prev.up.(s) else ix.(s + f) in
    up.(w) <- (if ps < 0 then -1 else ix.(ps))
  done;
  with_children ~root ~nodes ~up ~link

let members t = Array.to_list t.nodes
let mem t v = find t v >= 0

let parent t v =
  let i = find t v in
  if i < 0 || t.up.(i) < 0 then None else Some (t.nodes.(t.up.(i)), t.link.(i))

let children t v =
  let i = find t v in
  if i < 0 then []
  else
    List.init
      (t.off.(i + 1) - t.off.(i))
      (fun k ->
        let c = t.kids.(t.off.(i) + k) in
        (t.nodes.(c), t.link.(c)))

let edges t =
  let acc = ref [] in
  for i = Array.length t.nodes - 1 downto 0 do
    if t.up.(i) >= 0 then acc := (t.nodes.(t.up.(i)), t.nodes.(i), t.link.(i)) :: !acc
  done;
  !acc

let link_ids t =
  let acc = ref [] in
  Array.iteri (fun i lid -> if t.up.(i) >= 0 then acc := lid :: !acc) t.link;
  !acc

let cost t = Array.length t.nodes - 1

let switch_members g t =
  List.filter
    (fun v -> Graph.kind_is_switch (Graph.node g v).Graph.kind)
    (members t)

let index_exn t v =
  let i = find t v in
  if i < 0 then raise Not_found;
  i

let depth t v =
  let rec up i acc = if t.up.(i) < 0 then acc else up t.up.(i) (acc + 1) in
  up (index_exn t v) 0

let max_depth t =
  let m = Array.length t.nodes in
  let d = Array.make m (-1) in
  let rec depth_of i =
    if d.(i) < 0 then d.(i) <- (if t.up.(i) < 0 then 0 else 1 + depth_of t.up.(i));
    d.(i)
  in
  let best = ref 0 in
  for i = 0 to m - 1 do
    best := max !best (depth_of i)
  done;
  !best

let path_from_root t v =
  let rec up i acc =
    let acc = t.nodes.(i) :: acc in
    if t.up.(i) < 0 then acc else up t.up.(i) acc
  in
  up (index_exn t v) []

let validate g t ~dests =
  let fail fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let check_edge node parent lid =
    if lid < 0 || lid >= Graph.num_links g then
      fail "node %d: link %d out of range" node lid
    else begin
      let l = Graph.link g lid in
      if l.Graph.src <> parent || l.Graph.dst <> node then
        fail "node %d: link %d does not run %d->%d" node lid parent node
      else if not l.Graph.up then fail "node %d: link %d is down" node lid
      else Ok ()
    end
  in
  let rec first_error i =
    if i >= Array.length t.nodes then Ok ()
    else if t.up.(i) < 0 then first_error (i + 1)
    else
      match check_edge t.nodes.(i) t.nodes.(t.up.(i)) t.link.(i) with
      | Ok () -> first_error (i + 1)
      | e -> e
  in
  match first_error 0 with
  | Error _ as e -> e
  | Ok () ->
      let missing = List.filter (fun d -> not (mem t d)) dests in
      if missing <> [] then
        fail "destinations not spanned: %s"
          (String.concat "," (List.map string_of_int missing))
      else Ok ()
