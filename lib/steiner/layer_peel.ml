open Peel_topology

let reach_info g ~source ~dests =
  let dist = Graph.bfs_dist g source in
  let unreachable = List.exists (fun d -> dist.(d) = Graph.unreachable) dests in
  if unreachable then None
  else begin
    let far = List.fold_left (fun acc d -> max acc dist.(d)) 0 dests in
    Some (dist, far)
  end

let farthest_layer g ~source ~dests =
  match reach_info g ~source ~dests with
  | None -> None
  | Some (_, far) -> Some far

(* Candidate preference: lowest id by default, lowest (salted) hash when
   diversifying. *)
let rank ?salt u =
  match salt with
  | None -> u
  | Some s ->
      let h = Hashtbl.hash (u, s) in
      (h * 65599) lxor (h lsr 7)

(* The peeling core, parameterized by a layering.  [lay] labels every
   node with a layer ([Graph.unreachable] excludes a node); [top] is the
   outermost layer holding a member.  Candidate parents of [v] are its
   up-link in-neighbors on any {e strictly lower} layer.  With BFS
   layers this degenerates to exactly [dist v - 1] — an up neighbor is
   never more than one ring closer — so [build] below is bit-identical
   to the historical BFS-only peel. *)
let peel_layers ?salt g ~lay ~top ~source ~dests ~seeds =
  let n = Graph.num_nodes g in
  (* Bucket nodes into layers 0..top. *)
  let layers = Array.make (top + 1) [] in
  for v = n - 1 downto 0 do
    let d = lay.(v) in
    if d <> Graph.unreachable && d <= top then layers.(d) <- v :: layers.(d)
  done;
  let in_tree = Array.make n false in
  let parent_of = Array.make n None in
  in_tree.(source) <- true;
  List.iter (fun d -> in_tree.(d) <- true) dests;
  (* Pre-seed surviving bindings (re-peeling): the greedy below never
     overwrites an existing parent, so seeded subtrees keep their
     exact shape and peeling only extends around them. *)
  List.iter
    (fun (v, (p, lid)) ->
      in_tree.(v) <- true;
      in_tree.(p) <- true;
      parent_of.(v) <- Some (p, lid))
    seeds;
  (* Candidate parents of [v]: in-neighbors on a lower layer over up
     links.  ([Graph.unreachable] is [max_int], so excluded nodes never
     pass the [< lay v] test.) *)
  let lower_layer_neighbors v =
    let dv = lay.(v) in
    Array.to_list (Graph.out_links g v)
    |> List.filter_map (fun (u, lid) ->
           let rev = Graph.peer_link lid in
           if Graph.link_up g rev && lay.(u) < dv then Some (u, rev) else None)
  in
  for i = top - 1 downto 0 do
    (* Members of layer i+1 still lacking a parent. *)
    let uncovered =
      List.filter (fun v -> in_tree.(v) && parent_of.(v) = None) layers.(i + 1)
    in
    (* Step 1: attach to lower-layer nodes already in the tree. *)
    let uncovered =
      List.filter
        (fun v ->
          let existing =
            List.filter (fun (u, _) -> in_tree.(u)) (lower_layer_neighbors v)
          in
          match existing with
          | [] -> true
          | first :: rest ->
              let u, lid =
                List.fold_left
                  (fun (bu, bl) (u, l) ->
                    if rank ?salt u < rank ?salt bu then (u, l) else (bu, bl))
                  first rest
              in
              parent_of.(v) <- Some (u, lid);
              false)
        uncovered
    in
    (* Step 2: greedy set cover — repeatedly add the lower-layer switch
       attaching the most still-uncovered members of layer i+1. *)
    let uncovered = ref uncovered in
    while !uncovered <> [] do
      let coverage = Hashtbl.create 16 in
      List.iter
        (fun v ->
          List.iter
            (fun (u, _) ->
              Hashtbl.replace coverage u
                (1 + Option.value (Hashtbl.find_opt coverage u) ~default:0))
            (lower_layer_neighbors v))
        !uncovered;
      let best =
        Hashtbl.fold
          (fun u c acc ->
            match acc with
            | Some (bu, bc)
              when bc > c || (bc = c && rank ?salt bu <= rank ?salt u) ->
                acc
            | _ -> Some (u, c))
          coverage None
      in
      match best with
      | None ->
          (* With BFS layers this is impossible — BFS guarantees a
             predecessor on a live shortest path.  A caller-supplied
             layering can strand a member, which is a layering bug. *)
          invalid_arg
            (Printf.sprintf
               "Layer_peel: layering not peelable — no lower-layer parent \
                for a layer-%d member"
               (i + 1))
      | Some (u, _) ->
          in_tree.(u) <- true;
          uncovered :=
            List.filter
              (fun v ->
                match List.assoc_opt u (lower_layer_neighbors v) with
                | Some lid ->
                    parent_of.(v) <- Some (u, lid);
                    false
                | None -> true)
              !uncovered
    done
  done;
  (* With seeds, survivors that no longer feed any destination are
     dead weight — prune to the union of dest-to-root chains.
     (Plain builds only ever add covering switches, so every member
     already feeds a destination.) *)
  if seeds <> [] then begin
    let needed = Array.make n false in
    needed.(source) <- true;
    let rec mark v =
      if not needed.(v) then begin
        needed.(v) <- true;
        match parent_of.(v) with Some (p, _) -> mark p | None -> ()
      end
    in
    List.iter mark dests;
    for v = 0 to n - 1 do
      if not needed.(v) then parent_of.(v) <- None
    done
  end;
  let parents = ref [] in
  for v = 0 to n - 1 do
    match parent_of.(v) with
    | Some (p, lid) -> parents := (v, (p, lid)) :: !parents
    | None -> ()
  done;
  Tree.of_parents g ~root:source ~parents:!parents

let build_seeded ?salt g ~source ~dests ~seeds =
  let dests = List.sort_uniq compare (List.filter (fun d -> d <> source) dests) in
  match reach_info g ~source ~dests with
  | None -> None
  | Some (dist, far) ->
      Some (peel_layers ?salt g ~lay:dist ~top:far ~source ~dests ~seeds)

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
      let dests =
        List.sort_uniq compare (List.filter (fun d -> d <> source) dests)
      in
      if List.exists (fun d -> lay.(d) = Graph.unreachable) dests then None
      else begin
        let top = List.fold_left (fun acc d -> max acc lay.(d)) 0 dests in
        Some (peel_layers ?salt g ~lay ~top ~source ~dests ~seeds:[])
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

(* Bindings of [prev] as an association list, plus a membership test. *)
let bindings_of prev =
  let bs = ref [] in
  let rec walk v =
    List.iter
      (fun (child, lid) ->
        bs := (child, (v, lid)) :: !bs;
        walk child)
      (Tree.children prev v)
  in
  walk (Tree.root prev);
  !bs

(* Drop every binding that no longer feeds a destination: mark the
   root-ward chain of each dest, keep marked bindings only. *)
let prune_bindings g ~root ~bindings ~dests =
  let n = Graph.num_nodes g in
  let parent_of = Array.make n None in
  List.iter (fun (v, pl) -> parent_of.(v) <- Some pl) bindings;
  let needed = Array.make n false in
  needed.(root) <- true;
  let rec mark v =
    if not needed.(v) then begin
      needed.(v) <- true;
      match parent_of.(v) with Some (p, _) -> mark p | None -> ()
    end
  in
  List.iter mark dests;
  List.filter (fun (v, _) -> needed.(v)) bindings

let splice ?salt ?dist g ~prev ~source ~dests ~delta =
  if Tree.root prev <> source then
    invalid_arg "Layer_peel.splice: previous tree not rooted at the source";
  let dests = List.sort_uniq compare (List.filter (fun d -> d <> source) dests) in
  (match delta with
  | Add d ->
      if not (List.mem d dests) then
        invalid_arg "Layer_peel.splice: added member missing from dests"
  | Remove d ->
      if List.mem d dests then
        invalid_arg "Layer_peel.splice: removed member still in dests");
  match delta with
  | Remove d ->
      if not (Tree.mem prev d) then Some prev
      else
        let bindings =
          prune_bindings g ~root:source ~bindings:(bindings_of prev) ~dests
        in
        Some (Tree.of_parents g ~root:source ~parents:bindings)
  | Add d ->
      if d = source || Tree.mem prev d then Some prev
      else begin
        let dist = match dist with Some a -> a | None -> Graph.bfs_dist g source in
        if dist.(d) = Graph.unreachable then None
        else begin
          (* Climb from the new subscriber toward the source along BFS
             layers, binding each hop to the lowest-ranked previous-layer
             neighbour — preferring one already in the tree, where the
             climb stops.  This splices a single-path subtree in without
             touching any existing binding. *)
          let fresh = ref [] in
          let on_path = Hashtbl.create 8 in
          let exception Climb_failed in
          let rec climb v =
            if not (Tree.mem prev v) then begin
              let dv = dist.(v) in
              let candidates =
                Array.to_list (Graph.out_links g v)
                |> List.filter_map (fun (u, lid) ->
                       let rev = Graph.peer_link lid in
                       if
                         Graph.link_up g rev
                         && dist.(u) = dv - 1
                         && not (Hashtbl.mem on_path u)
                       then Some (u, rev)
                       else None)
              in
              let in_tree, fresh_cands =
                List.partition (fun (u, _) -> Tree.mem prev u) candidates
              in
              let best = function
                | [] -> None
                | first :: rest ->
                    Some
                      (List.fold_left
                         (fun (bu, bl) (u, l) ->
                           if rank ?salt u < rank ?salt bu then (u, l)
                           else (bu, bl))
                         first rest)
              in
              match best in_tree with
              | Some (u, lid) -> fresh := (v, (u, lid)) :: !fresh
              | None -> (
                  match best fresh_cands with
                  | Some (u, lid) ->
                      fresh := (v, (u, lid)) :: !fresh;
                      Hashtbl.replace on_path v ();
                      climb u
                  | None ->
                      (* A fresh BFS guarantees a shortest-path
                         predecessor at every hop, but a caller-supplied
                         [dist] may be stale and links may have gone
                         down since it was computed — honor the option
                         contract and let the caller fall back to a
                         full peel. *)
                      raise Climb_failed)
            end
          in
          match climb d with
          | exception Climb_failed -> None
          | () ->
              let bindings = !fresh @ bindings_of prev in
              (* The previous tree may carry members the shrinking side
                 of the churn already removed from [dests]; prune to the
                 chains the current membership needs. *)
              let bindings = prune_bindings g ~root:source ~bindings ~dests in
              Some (Tree.of_parents g ~root:source ~parents:bindings)
        end
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
