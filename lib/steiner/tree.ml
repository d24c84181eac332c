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

let of_parents g ~root ~parents =
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
      if k > 0 && bnode.(order.(k - 1)) = node then
        invalid_arg "Tree.of_parents: duplicate binding for a node";
      if node = root then invalid_arg "Tree.of_parents: root cannot have a parent";
      let l = Graph.link g blink.(i) in
      if l.Graph.src <> bparent.(i) || l.Graph.dst <> node then
        invalid_arg "Tree.of_parents: link does not run parent->node";
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
        if i < 0 then invalid_arg "Tree.of_parents: parent chain does not reach the root";
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
    if Bytes.get state !j = '\001' && up.(!j) >= 0 then
      invalid_arg "Tree.of_parents: parent chain does not reach the root";
    let j = ref i in
    while Bytes.get state !j = '\001' do
      Bytes.set state !j '\002';
      if up.(!j) >= 0 then j := up.(!j)
    done
  done;
  (* CSR children: count, prefix-sum, then place each child at its
     parent's cursor [off.(p)], which ends on [off.(p+1)]; shifting
     [off] right by one restores the starts. *)
  let off = Array.make (m + 1) 0 in
  Array.iter (fun p -> if p >= 0 then off.(p + 1) <- off.(p + 1) + 1) up;
  for i = 1 to m do
    off.(i) <- off.(i) + off.(i - 1)
  done;
  let kids = Array.make b 0 in
  Array.iteri
    (fun i p ->
      if p >= 0 then begin
        kids.(off.(p)) <- i;
        off.(p) <- off.(p) + 1
      end)
    up;
  for i = m downto 1 do
    off.(i) <- off.(i - 1)
  done;
  off.(0) <- 0;
  { root; nodes; up; link; off; kids }

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
