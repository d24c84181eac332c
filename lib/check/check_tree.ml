open Peel_topology
module Tree = Peel_steiner.Tree
module Layer_peel = Peel_steiner.Layer_peel
module D = Diagnostic

let symmetric_lower_bound fabric ~source ~dests =
  match Peel_steiner.Symmetric.cost_lower_bound fabric ~source ~dests with
  | cost -> Some cost
  | exception Invalid_argument _ -> None

let check_edges g tree =
  List.concat_map
    (fun (parent, child, lid) ->
      let loc = Printf.sprintf "edge %d->%d" parent child in
      if lid < 0 || lid >= Graph.num_links g then
        [ D.errorf ~code:"TREE002" ~loc "link id %d out of range" lid ]
      else begin
        let l = Graph.link g lid in
        if l.Graph.src <> parent || l.Graph.dst <> child then
          [
            D.errorf ~code:"TREE002" ~loc "link %d runs %d->%d, not parent->child"
              lid l.Graph.src l.Graph.dst;
          ]
        else if not l.Graph.up then
          [ D.errorf ~code:"TREE002" ~loc "link %d is down" lid ]
        else []
      end)
    (Tree.edges tree)

(* Walk child edges from the root; in a well-formed tree this reaches
   every member exactly once. *)
let check_shape tree =
  let members = Tree.members tree in
  let seen = Hashtbl.create (List.length members * 2) in
  let dups = ref [] in
  let rec visit v =
    if Hashtbl.mem seen v then dups := v :: !dups
    else begin
      Hashtbl.replace seen v ();
      List.iter (fun (c, _) -> visit c) (Tree.children tree v)
    end
  in
  visit (Tree.root tree);
  let unreached = List.filter (fun v -> not (Hashtbl.mem seen v)) members in
  List.map
    (fun v ->
      D.errorf ~code:"TREE004" ~loc:(Printf.sprintf "node %d" v)
        "member reached twice from the root (cycle or shared child)")
    !dups
  @ List.map
      (fun v ->
        D.errorf ~code:"TREE004" ~loc:(Printf.sprintf "node %d" v)
          "member not reachable from the root over child edges")
      unreached

let envelope ~far ~ndests ~opt = max 1 (min far ndests) * max 1 opt

(* Every tree holds a path [far] hops long, so max(OPT_sym, F) is a
   lower bound on OPT on the graph as it stands.  With every link up it
   is OPT itself (Lemma 2.1); with one down a breach proves nothing. *)
let check_cost_bound fabric g tree ~source ~dests =
  match symmetric_lower_bound fabric ~source ~dests with
  | None -> []
  | Some opt_sym -> (
      match Layer_peel.farthest_layer g ~source ~dests with
      | None -> [] (* unreachability is reported as TREE003 *)
      | Some far ->
          let ndests = List.length dests and opt = max opt_sym far in
          let bound = envelope ~far ~ndests ~opt and cost = Tree.cost tree in
          if cost <= bound then []
          else
            let all_up = Array.for_all (fun l -> l.Graph.up) (Graph.links g) in
            [
              (if all_up then D.errorf else D.warningf) ~code:"TREE005" ~loc:"tree"
                "cost %d exceeds min(F,|D|)*OPT = %d*%d = %d (Theorem 2.5%s)" cost
                (envelope ~far ~ndests ~opt:1) opt bound
                (if all_up then "" else "; a link is down: OPT >= max(OPT_sym,F)");
            ])

let check ?fabric g tree ~source ~dests =
  let dests = List.sort_uniq compare (List.filter (fun d -> d <> source) dests) in
  let root_ds =
    if Tree.root tree <> source then
      [
        D.errorf ~code:"TREE001" ~loc:"root" "tree is rooted at %d, not the source %d"
          (Tree.root tree) source;
      ]
    else []
  in
  let span_ds =
    List.filter_map
      (fun d ->
        if Tree.mem tree d then None
        else
          Some
            (D.errorf ~code:"TREE003" ~loc:(Printf.sprintf "dest %d" d)
               "destination not spanned by the tree"))
      dests
  in
  let cost_ds =
    match fabric with
    | None -> []
    | Some fabric -> check_cost_bound fabric g tree ~source ~dests
  in
  root_ds @ check_edges g tree @ check_shape tree @ span_ds @ cost_ds

let check_splice g ~prev ~tree ~source ~dests =
  let ds = check g tree ~source ~dests in
  (* The surviving prefix of [prev]: bindings still connected to the
     root over up links.  A replan may prune a survivor that no longer
     feeds any destination, but if it keeps the member it must keep the
     exact parent edge — delivered subtrees never get rewired. *)
  let splice_ds = ref [] in
  let rec walk v =
    List.iter
      (fun (child, lid) ->
        if Graph.link_up g lid then begin
          (if Tree.mem tree child then
             match Tree.parent tree child with
             | Some (p, l) when p = v && l = lid -> ()
             | Some (p, l) ->
                 splice_ds :=
                   D.errorf ~code:"TREE006"
                     ~loc:(Printf.sprintf "node %d" child)
                     "surviving binding %d->(link %d) rewired to %d->(link %d)"
                     v lid p l
                   :: !splice_ds
             | None ->
                 splice_ds :=
                   D.errorf ~code:"TREE006"
                     ~loc:(Printf.sprintf "node %d" child)
                     "surviving member kept but left parentless (was %d->link %d)"
                     v lid
                   :: !splice_ds);
          walk child
        end)
      (Tree.children prev v)
  in
  if Tree.root prev = Tree.root tree then walk (Tree.root prev)
  else
    splice_ds :=
      [
        D.errorf ~code:"TREE006" ~loc:"root"
          "replanned tree rooted at %d, previous tree at %d" (Tree.root tree)
          (Tree.root prev);
      ];
  ds @ List.rev !splice_ds
