open Peel_topology

let link_loads g hops =
  let loads = Array.make (Graph.num_links g) 0 in
  List.iter
    (fun (src, dst) ->
      match Graph.shortest_path g src dst with
      | None -> invalid_arg "Traffic.link_loads: disconnected pair"
      | Some path ->
          let rec walk = function
            | a :: (b :: _ as rest) ->
                (match Graph.link_between g a b with
                | Some lid -> loads.(lid) <- loads.(lid) + 1
                | None -> invalid_arg "Traffic.link_loads: broken path");
                walk rest
            | _ -> ()
          in
          walk path)
    hops;
  loads

let tree_loads g tree =
  let loads = Array.make (Graph.num_links g) 0 in
  List.iter (fun lid -> loads.(lid) <- loads.(lid) + 1) (Peel_steiner.Tree.link_ids tree);
  loads

let nvlink_threshold = 100e9

let total g loads =
  let sum = ref 0 in
  Array.iteri
    (fun lid c ->
      if c > 0 && (Graph.link g lid).Graph.bandwidth <= nvlink_threshold then
        sum := !sum + c)
    loads;
  !sum

let core_load g loads =
  let touches_core lid =
    let l = Graph.link g lid in
    let k v = (Graph.node g v).Graph.kind in
    match (k l.Graph.src, k l.Graph.dst) with
    | (Graph.Core | Graph.Spine), _ | _, (Graph.Core | Graph.Spine) -> true
    | _ -> false
  in
  let sum = ref 0 in
  Array.iteri (fun lid c -> if c > 0 && touches_core lid then sum := !sum + c) loads;
  !sum

let overshoot ~baseline ~optimal =
  if optimal <= 0 then invalid_arg "Traffic.overshoot: optimal must be positive";
  float_of_int (baseline - optimal) /. float_of_int optimal
