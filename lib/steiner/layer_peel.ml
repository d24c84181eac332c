open Peel_topology

(* Candidate preference: lowest id by default, lowest (salted) hash when
   diversifying. *)
let rank ?salt u =
  match salt with
  | None -> u
  | Some s ->
      let h = Hashtbl.hash (u, s) in
      (h * 65599) lxor (h lsr 7)

(* ---------------- scratch ---------------- *)

(* The node-indexed state of one call.  [touched.(0 .. n_touched-1)]
   lists every node whose [mark], [par] or [plink] entry the call set,
   so the next call clears exactly those, and [bfs] clears its own
   labels; a call that raised or a link that failed in between leaves
   nothing stale.  [count] is zero except on [cands.(0 .. n_cands-1)],
   the candidates of the layer being peeled. *)
type scratch = {
  graph : Graph.t;
  bfs : Graph.bfs;
  mark : Bytes.t;  (* '\001' member, '\002' member on a dest-to-root chain *)
  par : int array;  (* parent node, -1 when unbound *)
  plink : int array;  (* parent link *)
  next : int array;  (* layer buckets: the next member on this layer *)
  count : int array;  (* live links from still-unattached members *)
  touched : int array;
  mutable n_touched : int;
  pending : int array;  (* the current layer's unattached members *)
  cands : int array;  (* nodes with a count, and their ranks *)
  cand_rank : int array;
  mutable n_cands : int;
}

let create_scratch g =
  let n = Graph.num_nodes g in
  {
    graph = g;
    bfs = Graph.bfs_create g;
    mark = Bytes.make n '\000';
    par = Array.make n (-1);
    plink = Array.make n (-1);
    next = Array.make n (-1);
    count = Array.make n 0;
    touched = Array.make n 0;
    n_touched = 0;
    pending = Array.make n 0;
    cands = Array.make n 0;
    cand_rank = Array.make n 0;
    n_cands = 0;
  }

let clear_counts s =
  for j = 0 to s.n_cands - 1 do
    s.count.(s.cands.(j)) <- 0
  done;
  s.n_cands <- 0

(* One scratch per domain, held weakly: calls reuse it until a major
   collection finds it idle and frees it, so it never counts as live
   heap; the next call then allocates a fresh one. *)
let scratch_slot : scratch Weak.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Weak.create 1)

let scratch g =
  let slot = Domain.DLS.get scratch_slot in
  let s =
    match Weak.get slot 0 with
    | Some s when s.graph == g -> s
    | _ ->
        let s = create_scratch g in
        Weak.set slot 0 (Some s);
        s
  in
  for i = 0 to s.n_touched - 1 do
    let v = s.touched.(i) in
    Bytes.set s.mark v '\000';
    s.par.(v) <- -1
  done;
  s.n_touched <- 0;
  clear_counts s;
  Graph.bfs_reset s.bfs;
  s

(* Exact hop labels for every node closer to [source] than the
   farthest destination, from a search that stops once the last
   destination is labelled; [None] if one is unreachable.  Returns the
   labels (valid until the next search on [s]) and that farthest
   distance. *)
let label s ~source ~dests =
  (* Starting the search labels [source] and hands back the array. *)
  let dist = Graph.bfs_reach s.bfs ~src:source ~dst:source in
  let rec go far = function
    | [] -> Some (dist, far)
    | d :: rest ->
        let l = (Graph.bfs_reach s.bfs ~src:source ~dst:d).(d) in
        if l = Graph.unreachable then None else go (max far l) rest
  in
  go 0 dests

let farthest_layer g ~source ~dests =
  Option.map snd (label (scratch g) ~source ~dests)

(* Make [v] a member; [false] if it already was. *)
let join s v =
  Bytes.get s.mark v = '\000'
  && begin
       Bytes.set s.mark v '\001';
       s.touched.(s.n_touched) <- v;
       s.n_touched <- s.n_touched + 1;
       true
     end

let bind s v ~parent ~link =
  s.par.(v) <- parent;
  s.plink.(v) <- link

(* The link [u -> v] over which [u] can parent [v]: [v]'s first
   out-edge to [u] in adjacency order whose reverse is up, reversed;
   -1 if none. *)
let link_from g u v =
  let edges = Graph.out_links g v in
  let found = ref (-1) and i = ref 0 in
  while !found < 0 && !i < Array.length edges do
    let w, lid = edges.(!i) in
    let rev = Graph.peer_link lid in
    if w = u && Graph.link_up g rev then found := rev;
    incr i
  done;
  !found

(* Mark the chain from member [v] to the root as needed. *)
let rec need s v =
  if Bytes.get s.mark v = '\001' then begin
    Bytes.set s.mark v '\002';
    if s.par.(v) >= 0 then need s s.par.(v)
  end

(* The bindings of every member, or with [prune] only of members on a
   dest-to-root chain, read back from the touched list. *)
let tree_of s g ~source ~dests ~prune =
  if prune then begin
    Bytes.set s.mark source '\002';
    List.iter (need s) dests
  end;
  let parents = ref [] in
  for i = 0 to s.n_touched - 1 do
    let v = s.touched.(i) in
    if s.par.(v) >= 0 && ((not prune) || Bytes.get s.mark v = '\002') then
      parents := (v, (s.par.(v), s.plink.(v))) :: !parents
  done;
  Tree.of_parents g ~root:source ~parents:!parents

(* The reverse of out-edge [(u, lid)] of a node on layer [dv] when it
   is up and [u] sits on a lower layer, else -1. *)
let[@inline] lower g lay dv (u, lid) =
  let rev = Graph.peer_link lid in
  if Graph.link_up g rev && lay.(u) < dv then rev else -1

(* The peeling core over a layering [lay] ([Graph.unreachable]
   excludes a node); [top] is the outermost layer holding a
   destination.  Candidate parents of [v] are its up-link in-neighbors
   on any {e strictly lower} layer.  With BFS labels this is exactly
   [dist v - 1] — an up neighbor is never more than one ring closer.
   Labels only need to be exact below [top]: a node the bounded search
   left unlabelled never passes the [< lay v] test, and neither would
   its true label.  Only members are bucketed, so the cost follows the
   tree, not the fabric. *)
let peel s ?salt g ~lay ~top ~source ~dests ~seeds =
  let heads = Array.make (top + 1) (-1) in
  let join v =
    if join s v then begin
      let l = lay.(v) in
      if l <= top then begin
        s.next.(v) <- heads.(l);
        heads.(l) <- v
      end
    end
  in
  join source;
  List.iter join dests;
  (* Pre-seed surviving bindings (re-peeling): the greedy below never
     overwrites an existing parent, so seeded subtrees keep their
     exact shape and peeling only extends around them. *)
  List.iter
    (fun (v, (p, lid)) ->
      join v;
      join p;
      bind s v ~parent:p ~link:lid)
    seeds;
  for l = top downto 1 do
    (* Step 1: attach to the lowest-ranked lower-layer member, first in
       adjacency order on a tie; the rest wait in [pending]. *)
    let np = ref 0 in
    let v = ref heads.(l) in
    while !v >= 0 do
      let x = !v in
      if s.par.(x) < 0 then begin
        let edges = Graph.out_links g x in
        let best = ref (-1) and best_link = ref (-1) and best_rank = ref 0 in
        for k = 0 to Array.length edges - 1 do
          let rev = lower g lay l edges.(k) in
          let u = fst edges.(k) in
          if rev >= 0 && Bytes.get s.mark u <> '\000' then begin
            let r = rank ?salt u in
            if !best < 0 || r < !best_rank then begin
              best := u;
              best_link := rev;
              best_rank := r
            end
          end
        done;
        if !best >= 0 then bind s x ~parent:!best ~link:!best_link
        else begin
          s.pending.(!np) <- x;
          incr np
        end
      end;
      v := s.next.(x)
    done;
    (* Step 2: greedy set cover — repeatedly add the lower-layer node
       with the most live links from unattached members (ties: lower
       rank, then lower id).  Counts are kept incrementally: a member
       withdraws its links once attached, which leaves every count
       what a recount would give. *)
    if !np > 0 then begin
      (* Add [by] to the count of every lower-layer node [x] has a live
         link from; a node counted for the first time becomes a
         candidate. *)
      let tally x ~by =
        let edges = Graph.out_links g x in
        for k = 0 to Array.length edges - 1 do
          if lower g lay l edges.(k) >= 0 then begin
            let u = fst edges.(k) in
            if s.count.(u) = 0 && by > 0 then begin
              s.cands.(s.n_cands) <- u;
              s.cand_rank.(s.n_cands) <- rank ?salt u;
              s.n_cands <- s.n_cands + 1
            end;
            s.count.(u) <- s.count.(u) + by
          end
        done
      in
      for j = 0 to !np - 1 do
        tally s.pending.(j) ~by:1
      done;
      let left = ref !np in
      while !left > 0 do
        let bu = ref (-1) and bc = ref 0 and br = ref 0 in
        for j = 0 to s.n_cands - 1 do
          let u = s.cands.(j) in
          let c = s.count.(u) and r = s.cand_rank.(j) in
          if c > !bc || (c = !bc && c > 0 && (r < !br || (r = !br && u < !bu)))
          then begin
            bu := u;
            bc := c;
            br := r
          end
        done;
        if !bu < 0 then
          (* With BFS layers this is impossible — BFS guarantees a
             predecessor on a live shortest path.  A caller-supplied
             layering can strand a member, which is a layering bug. *)
          invalid_arg
            (Printf.sprintf
               "Layer_peel: layering not peelable — no lower-layer parent \
                for a layer-%d member"
               l);
        let u = !bu in
        join u;
        let j = ref 0 in
        while !j < !left do
          let x = s.pending.(!j) in
          let lid = link_from g u x in
          if lid >= 0 then begin
            bind s x ~parent:u ~link:lid;
            tally x ~by:(-1);
            decr left;
            s.pending.(!j) <- s.pending.(!left)
          end
          else incr j
        done
      done;
      clear_counts s
    end
  done;
  (* With seeds, survivors that no longer feed any destination are
     dead weight — prune to the union of dest-to-root chains.  (Plain
     builds only ever add covering switches, so every member already
     feeds a destination.) *)
  tree_of s g ~source ~dests ~prune:(seeds <> [])

(* [dests] may repeat a node or hold the source: [join] skips members. *)
let build_seeded ?salt g ~source ~dests ~seeds =
  let s = scratch g in
  match label s ~source ~dests with
  | None -> None
  | Some (lay, top) -> Some (peel s ?salt g ~lay ~top ~source ~dests ~seeds)

let build ?salt g ~source ~dests = build_seeded ?salt g ~source ~dests ~seeds:[]

let peel_general ?salt ?layers g ~source ~dests =
  match layers with
  | None -> build ?salt g ~source ~dests
  | Some lay ->
      if Array.length lay <> Graph.num_nodes g then
        invalid_arg "Layer_peel.peel_general: layering length mismatch";
      if lay.(source) <> 0 then
        invalid_arg "Layer_peel.peel_general: source must sit on layer 0";
      Array.iteri
        (fun v l ->
          if l = 0 && v <> source then
            invalid_arg
              "Layer_peel.peel_general: layer 0 must hold only the source"
          else if l < 0 then
            invalid_arg "Layer_peel.peel_general: negative layer label")
        lay;
      if List.exists (fun d -> lay.(d) = Graph.unreachable) dests then None
      else begin
        let top = List.fold_left (fun acc d -> max acc lay.(d)) 0 dests in
        Some (peel (scratch g) ?salt g ~lay ~top ~source ~dests ~seeds:[])
      end

(* Per-switch rule accounting when no pod/ToR prefix structure exists:
   a switch needs one replication rule per distinct child-port set it
   serves across the tree family (§3's static prefix rules degraded to
   port-set rules). *)
let port_set_rules g trees =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun tree ->
      List.iter
        (fun v ->
          if Graph.kind_is_switch (Graph.node g v).Graph.kind then begin
            let ports =
              Tree.children tree v |> List.map snd |> List.sort compare
            in
            if ports <> [] then begin
              let key = String.concat "," (List.map string_of_int ports) in
              let set =
                match Hashtbl.find_opt tbl v with
                | Some s -> s
                | None ->
                    let s = Hashtbl.create 4 in
                    Hashtbl.replace tbl v s;
                    s
              in
              Hashtbl.replace set key ()
            end
          end)
        (Tree.members tree))
    trees;
  Hashtbl.fold (fun v set acc -> (v, Hashtbl.length set) :: acc) tbl []
  |> List.sort compare

type delta = Add of int | Remove of int

(* Climb from the new subscriber [v] toward the source along [dist]
   layers, binding each hop to a previous-layer neighbour over an up
   link: one already in [prev] if any (where the climb stops), else a
   fresh one; among either kind the lowest rank, then the first in
   adjacency order.  [dist] falls by one per hop, so no candidate is a
   node climbed before.  [fresh] holds the bindings climbed so far;
   returns them with the rest of the climb, or [None] when some hop
   has no candidate. *)
let rec climb ~salt g ~prev ~dist v fresh =
  if Tree.mem prev v then Some fresh
  else begin
    let dv = dist.(v) in
    let edges = Graph.out_links g v in
    let tu = ref (-1) and tl = ref (-1) and tr = ref 0 in
    let fu = ref (-1) and fl = ref (-1) and fr = ref 0 in
    for k = 0 to Array.length edges - 1 do
      let u, lid = edges.(k) in
      let rev = Graph.peer_link lid in
      if Graph.link_up g rev && dist.(u) = dv - 1 then begin
        let r = rank ?salt u in
        if Tree.mem prev u then begin
          if !tu < 0 || r < !tr then begin
            tu := u;
            tl := rev;
            tr := r
          end
        end
        else if !fu < 0 || r < !fr then begin
          fu := u;
          fl := rev;
          fr := r
        end
      end
    done;
    if !tu >= 0 then Some ((v, (!tu, !tl)) :: fresh)
    else if !fu >= 0 then climb ~salt g ~prev ~dist !fu ((v, (!fu, !fl)) :: fresh)
    else
      (* A fresh BFS guarantees a shortest-path predecessor at every
         hop, but a caller-supplied [dist] may be stale and links may
         have gone down since it was computed: the caller falls back to
         a full peel. *)
      None
  end

let splice ?salt ?dist g ~prev ~source ~dests ~delta =
  if Tree.root prev <> source then
    invalid_arg "Layer_peel.splice: previous tree not rooted at the source";
  match delta with
  | Remove d ->
      if d <> source && List.mem d dests then
        invalid_arg "Layer_peel.splice: removed member still in dests";
      if Tree.mem prev d then Some (Tree.derive g ~prev ~fresh:[] ~dests)
      else Some prev
  | Add d ->
      if d = source || not (List.mem d dests) then
        invalid_arg "Layer_peel.splice: added member missing from dests";
      if Tree.mem prev d then Some prev
      else begin
        (* Without a cached array, a search bounded by [d] labels every
           node the climb reads. *)
        let dist =
          match dist with
          | Some a -> a
          | None -> Graph.bfs_reach (scratch g).bfs ~src:source ~dst:d
        in
        if dist.(d) = Graph.unreachable then None
        else
          (* The new tree keeps [prev]'s bindings on the chains the
             current [dests] need (the shrinking side of the churn may
             have left dead weight) plus the climbed path. *)
          match climb ~salt g ~prev ~dist d [] with
          | None -> None
          | Some fresh -> Some (Tree.derive g ~prev ~fresh ~dests)
      end

let repeel ?salt g ~prev ~source ~dests =
  if Tree.root prev <> source then
    invalid_arg "Layer_peel.repeel: previous tree not rooted at the source";
  (* The surviving prefix: bindings reachable from the root over edges
     that are still up.  A member below a failed edge is cut loose even
     if its own parent edge survived — its chain to the root is gone. *)
  let seeds = ref [] in
  let rec walk v =
    List.iter
      (fun (child, lid) ->
        if Graph.link_up g lid then begin
          seeds := (child, (v, lid)) :: !seeds;
          walk child
        end)
      (Tree.children prev v)
  in
  walk source;
  build_seeded ?salt g ~source ~dests ~seeds:!seeds
