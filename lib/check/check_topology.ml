open Peel_topology
module Tree = Peel_steiner.Tree
module Layer_peel = Peel_steiner.Layer_peel
module Exact = Peel_steiner.Exact
module D = Diagnostic

let check_layering z =
  List.map
    (fun msg -> D.errorf ~code:"TOPO001" ~loc:"layering" "%s" msg)
    (Zoo.layering_violations z)

let check_invariants z =
  List.map
    (fun msg -> D.errorf ~code:"TOPO002" ~loc:"invariants" "%s" msg)
    (Zoo.invariant_violations z)

(* A peeled tree descends strictly away from the source: every binding
   attaches a member to a parent on a strictly lower BFS layer, so an
   edge whose parent is at least as far as its child can only come from
   a corrupted tree (or a tree built for a different source).  This is
   the generalization of TREE002/004 that has teeth on expanders, where
   there is no pod structure for the other checks to lean on. *)
let check_general_tree g tree ~source ~dests =
  let base = Check_tree.check g tree ~source ~dests in
  let dist = Graph.bfs_dist g source in
  let mono =
    List.filter_map
      (fun (parent, child, _lid) ->
        if
          dist.(parent) <> Graph.unreachable
          && dist.(child) <> Graph.unreachable
          && dist.(parent) >= dist.(child)
        then
          Some
            (D.errorf ~code:"TOPO003"
               ~loc:(Printf.sprintf "edge %d->%d" parent child)
               "tree edge climbs from BFS layer %d to layer %d: peeled \
                trees descend strictly away from the source"
               dist.(parent) dist.(child))
        else None)
      (Tree.edges tree)
  in
  base @ mono

let check_ratio ~cost ~opt ~far ~ndests =
  if cost < opt then
    [
      D.errorf ~code:"TOPO004" ~loc:"oracle"
        "greedy cost %d beats the exact optimum %d: oracle inconsistency"
        cost opt;
    ]
  else begin
    let factor = Check_tree.envelope ~far ~ndests ~opt:1 in
    let bound = Check_tree.envelope ~far ~ndests ~opt in
    if cost > bound then
      [
        D.errorf ~code:"TOPO004" ~loc:"oracle"
          "cost %d exceeds min(F,|D|)*OPT = %d*%d = %d (Theorem 2.5 \
           against the exact oracle)"
          cost factor opt bound;
      ]
    else []
  end

let check_scenario z ~source ~dests =
  let dests =
    List.sort_uniq compare (List.filter (fun d -> d <> source) dests)
  in
  let structural = check_layering z @ check_invariants z in
  let g = z.Zoo.graph in
  match Layer_peel.peel_general g ~source ~dests with
  | None -> structural (* unreachability is the main battery's TREE003 *)
  | Some tree ->
      let tree_ds = check_general_tree g tree ~source ~dests in
      let ratio_ds =
        match Exact.oracle g ~source ~dests with
        | None -> [] (* oracle declined: too many racks for the DP *)
        | Some opt -> (
            match Layer_peel.farthest_layer g ~source ~dests with
            | None -> []
            | Some far ->
                check_ratio ~cost:(Tree.cost tree) ~opt ~far
                  ~ndests:(List.length dests))
      in
      structural @ tree_ds @ ratio_ds

(* ------------------------------------------------------------------ *)
(* Seeded corruptions                                                  *)
(* ------------------------------------------------------------------ *)

(* Attach one extra node to the tree through an up link that does not
   descend the BFS layering — valid by every TREE check (live link,
   right direction, reached once), caught only by TOPO003. *)
let climbing_tree g tree ~source =
  let dist = Graph.bfs_dist g source in
  let found = ref None in
  for u = 0 to Graph.num_nodes g - 1 do
    if !found = None && Tree.mem tree u then
      Array.iter
        (fun (v, lid) ->
          if
            !found = None && Graph.link_up g lid
            && (not (Tree.mem tree v))
            && dist.(v) <> Graph.unreachable
            && dist.(u) >= dist.(v)
          then found := Some (v, (u, lid)))
        (Graph.out_links g u)
  done;
  match !found with
  | None ->
      failwith
        "topo003 corruption: no non-descending attachment exists (try a \
         different seed or topology)"
  | Some binding ->
      let parents =
        binding :: List.map (fun (p, c, lid) -> (c, (p, lid))) (Tree.edges tree)
      in
      Tree.of_parents g ~root:source ~parents

let corrupt code z =
  let g = z.Zoo.graph in
  let planned f ~source ~dests =
    match Layer_peel.peel_general g ~source ~dests with
    | None -> []
    | Some tree -> f tree ~source ~dests
  in
  match code with
  | `Topo001 ->
      (* Drag a switch down to the endpoint layer: the layering is no
         longer well formed (switches live on layers >= 1). *)
      z.Zoo.layer_of.(z.Zoo.tors.(0)) <- 0;
      (z, fun ~source:_ ~dests:_ -> [])
  | `Topo002 ->
      (* Drop the last ToR from the roster: the class's size invariant
         (ToR count derived from the parameters) breaks. *)
      let tors = Array.sub z.Zoo.tors 0 (Array.length z.Zoo.tors - 1) in
      ({ z with Zoo.tors }, fun ~source:_ ~dests:_ -> [])
  | `Topo003 ->
      ( z,
        planned (fun tree ~source ~dests ->
            check_general_tree g (climbing_tree g tree ~source) ~source ~dests) )
  | `Topo004 ->
      (* An "optimum" one link dearer than the greedy's tree: the greedy
         beats the exact oracle, the inconsistency TOPO004 exists to
         catch. *)
      ( z,
        planned (fun tree ~source ~dests ->
            match Layer_peel.farthest_layer g ~source ~dests with
            | None -> []
            | Some far ->
                let cost = Tree.cost tree in
                check_ratio ~cost ~opt:(cost + 1) ~far
                  ~ndests:(List.length dests)) )
