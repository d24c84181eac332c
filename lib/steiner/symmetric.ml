open Peel_topology
module Bits = Peel_util.Bits

(* The link a binding parent->child uses: the lowest-id one that is up
   ([build]), or that exists at all ([cost_lower_bound], which costs
   the failure-free fabric).  Every link has its peer in the other
   direction, so one pass over the smaller of the two adjacencies finds
   them all: an endpoint's, not its ToR's. *)
let find_link ~structural g parent child =
  let from_child = Graph.degree g child < Graph.degree g parent in
  let adj = Graph.out_links g (if from_child then child else parent) in
  let other = if from_child then parent else child in
  let best = ref max_int in
  for i = 0 to Array.length adj - 1 do
    let dst, lid = adj.(i) in
    let lid = if from_child then Graph.peer_link lid else lid in
    if dst = other && lid < !best && (structural || Graph.link_up g lid) then
      best := lid
  done;
  if !best = max_int then
    invalid_arg
      (if structural then
         Printf.sprintf "Symmetric.cost_lower_bound: no link %d->%d" parent child
       else
         Printf.sprintf "Symmetric.build: no up link %d->%d (fabric asymmetric?)"
           parent child);
  !best

(* Ascending, in place.  Up to 16 elements an insertion sort: on 12
   ints (2-core x86-64 host) it ran ~5x faster than
   [Array.stable_sort] and allocates nothing.  Groups of that size are
   the service's common case. *)
let sort_ints (a : int array) =
  if Array.length a > 16 then Array.stable_sort Int.compare a
  else
    for i = 1 to Array.length a - 1 do
      let x = a.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && a.(!j) > x do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- x
    done

(* Distinct values of the ascending [a], compacted to its front;
   returns their count. *)
let dedup (a : int array) =
  let k = ref 0 in
  for i = 0 to Array.length a - 1 do
    if !k = 0 || a.(!k - 1) <> a.(i) then begin
      a.(!k) <- a.(i);
      incr k
    end
  done;
  !k

(* Enumerate the symmetric tree's parent bindings once, calling [emit
   child parent link] for each; [build] lowers them through
   [Tree.of_parents] and [cost_lower_bound] counts them.  Every
   endpoint (host, or GPU through its dedicated NIC) hangs directly off
   its ToR, so the tree is: source -> ToR -> upper tiers -> destination
   ToRs -> destination endpoints.  The group is one ascending int column
   of (ToR, endpoint) keys, so each ToR's endpoints form a run and the
   distinct ToRs are read off the run heads. *)
let enumerate ~structural fabric ~source ~dests ~emit =
  let g = Fabric.graph fabric in
  let bind parent child = emit child parent (find_link ~structural g parent child) in
  let shift = Bits.ceil_log2 (Int.max 2 (Graph.num_nodes g)) in
  let mask = (1 lsl shift) - 1 in
  let src_tor = Fabric.attach_tor fabric source in
  let keys = Array.of_list dests in
  let n = ref 0 in
  Array.iter
    (fun d ->
      if d <> source then begin
        keys.(!n) <- (Fabric.attach_tor fabric d lsl shift) lor d;
        incr n
      end)
    keys;
  let keys = if !n < Array.length keys then Array.sub keys 0 !n else keys in
  sort_ints keys;
  let n = dedup keys in
  let tor i = keys.(i) lsr shift in
  (* The destination ToRs other than the source's, each once: the heads
     of their runs. *)
  let other_tor i = tor i <> src_tor && (i = 0 || tor (i - 1) <> tor i) in
  let nt = ref 0 in
  for i = 0 to n - 1 do
    if other_tor i then incr nt
  done;
  if n > 0 then bind source src_tor;
  (* Upper tiers, only if some ToR outside the source ToR is involved. *)
  (if !nt > 0 then
     match fabric with
     | Fabric.Ls { Leaf_spine.spines; _ } | Fabric.Rl { Rail.spines; _ } ->
         (* Two tiers: one spine covers every leaf (or rail ToR). *)
         let spine = spines.(0) in
         bind src_tor spine;
         for i = 0 to n - 1 do
           if other_tor i then bind spine (tor i)
         done
     | Fabric.Ft ft ->
         (* One aggregation switch per involved pod and one core between
            pods.  (pod, ToR) keys, ascending, run pod by pod. *)
         let pod_tors = Array.make !nt 0 in
         let k = ref 0 in
         for i = 0 to n - 1 do
           if other_tor i then begin
             pod_tors.(!k) <- (Fabric.pod_of_tor fabric (tor i) lsl shift) lor tor i;
             incr k
           end
         done;
         sort_ints pod_tors;
         let src_pod = Fabric.pod_of_tor fabric src_tor in
         let agg_of_pod p = ft.Fat_tree.aggs_of_pod.(p).(0) in
         let src_agg = agg_of_pod src_pod in
         bind src_tor src_agg;
         if Array.exists (fun k -> k lsr shift <> src_pod) pod_tors then begin
           let core = ft.Fat_tree.cores.(0) in
           bind src_agg core;
           Array.iteri
             (fun i k ->
               let p = k lsr shift in
               if p <> src_pod then begin
                 let agg = agg_of_pod p in
                 if i = 0 || pod_tors.(i - 1) lsr shift <> p then bind core agg;
                 bind agg (k land mask)
               end)
             pod_tors
         end;
         Array.iter
           (fun k -> if k lsr shift = src_pod then bind src_agg (k land mask))
           pod_tors
     | Fabric.Zo _ ->
         (* No closed-form optimum beyond the source rack on zoo fabrics:
            force the caller (Peel.multicast_tree, TREE005's lower bound)
            onto the general layer-peeling path.  A single-rack group is
            still exact — source -> ToR -> destinations needs no upper
            tier. *)
         invalid_arg "Symmetric.build: no closed-form optimal tree on a zoo fabric");
  (* Down edges: ToR -> destination endpoint (host or GPU NIC). *)
  for i = 0 to n - 1 do
    bind (tor i) (keys.(i) land mask)
  done

let build fabric ~source ~dests =
  let parents = ref [] in
  enumerate ~structural:false fabric ~source ~dests ~emit:(fun child parent lid ->
      parents := (child, (parent, lid)) :: !parents);
  Tree.of_parents (Fabric.graph fabric) ~root:source ~parents:!parents

let cost_lower_bound fabric ~source ~dests =
  let count = ref 0 in
  enumerate ~structural:true fabric ~source ~dests ~emit:(fun _ _ _ -> incr count);
  !count
