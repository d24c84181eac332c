type t = Ft of Fat_tree.t | Ls of Leaf_spine.t | Rl of Rail.t | Zo of Zoo.t

let fat_tree ?hosts_per_tor ?gpus_per_host ~k () =
  Ft (Fat_tree.create ?hosts_per_tor ?gpus_per_host ~k ())

let leaf_spine ?gpus_per_host ~spines ~leaves ~hosts_per_leaf () =
  Ls (Leaf_spine.create ?gpus_per_host ~spines ~leaves ~hosts_per_leaf ())

let rail ~rails ~groups ~servers_per_group ~spines () =
  Rl (Rail.create ~rails ~groups ~servers_per_group ~spines ())

let of_zoo z = Zo z

let graph = function
  | Ft f -> f.Fat_tree.graph
  | Ls l -> l.Leaf_spine.graph
  | Rl r -> r.Rail.graph
  | Zo z -> z.Zoo.graph

let gpus = function
  | Ft f -> f.Fat_tree.gpus
  | Ls l -> l.Leaf_spine.gpus
  | Rl r -> r.Rail.gpus
  | Zo _ -> [||]

let hosts = function
  | Ft f -> f.Fat_tree.hosts
  | Ls l -> l.Leaf_spine.hosts
  | Rl r -> r.Rail.hosts
  | Zo z -> z.Zoo.hosts

let tors = function
  | Ft f -> f.Fat_tree.tors
  | Ls l -> l.Leaf_spine.leaves
  | Rl r -> r.Rail.tors
  | Zo z -> z.Zoo.tors

let endpoints t =
  let g = gpus t in
  if Array.length g > 0 then g else hosts t

let host_of_gpu t gpu =
  let a =
    match t with
    | Ft f -> f.Fat_tree.host_of_gpu
    | Ls l -> l.Leaf_spine.host_of_gpu
    | Rl r -> r.Rail.host_of_gpu
    | Zo _ -> invalid_arg "Fabric.host_of_gpu: zoo fabrics carry no GPUs"
  in
  let h = a.(gpu) in
  if h < 0 then invalid_arg "Fabric.host_of_gpu: not a GPU node";
  h

let tor_of_host t host =
  match t with
  | Ft f ->
      let x = f.Fat_tree.tor_of_host.(host) in
      if x < 0 then invalid_arg "Fabric.tor_of_host: not a host node";
      x
  | Ls l ->
      let x = l.Leaf_spine.leaf_of_host.(host) in
      if x < 0 then invalid_arg "Fabric.tor_of_host: not a host node";
      x
  | Zo z ->
      let x = z.Zoo.tor_of_host.(host) in
      if x < 0 then invalid_arg "Fabric.tor_of_host: not a host node";
      x
  | Rl _ ->
      invalid_arg
        "Fabric.tor_of_host: a rail-optimized server spans every rail ToR"

let endpoint_host t v =
  match (Graph.node (graph t) v).Graph.kind with
  | Graph.Gpu -> host_of_gpu t v
  | Graph.Host -> v
  | _ -> invalid_arg "Fabric.endpoint_host: not an endpoint"

let attach_tor t v =
  match t with
  | Rl r ->
      let tor = r.Rail.tor_of_gpu.(v) in
      if tor < 0 then invalid_arg "Fabric.attach_tor: not a rail endpoint";
      tor
  | Ft _ | Ls _ | Zo _ -> tor_of_host t (endpoint_host t v)

let pods = function
  | Ft f -> f.Fat_tree.pods
  | Ls _ -> 1
  | Rl _ -> 1
  | Zo z -> z.Zoo.pods

let tors_per_pod = function
  | Ft f -> f.Fat_tree.k / 2
  | Ls l -> Array.length l.Leaf_spine.leaves
  | Rl r -> Array.length r.Rail.tors
  | Zo z ->
      Array.fold_left (fun acc p -> max acc (Array.length p)) 0 z.Zoo.tors_of_pod

let pod_of_tor t tor =
  match t with
  | Ft _ | Zo _ -> (Graph.node (graph t) tor).Graph.pod
  | Ls _ | Rl _ -> 0

let tor_idx_in_pod t tor = (Graph.node (graph t) tor).Graph.idx

let tors_of_pod t p =
  match t with
  | Ft f -> f.Fat_tree.tors_of_pod.(p)
  | Ls l ->
      if p <> 0 then invalid_arg "Fabric.tors_of_pod: leaf-spine has one pod";
      l.Leaf_spine.leaves
  | Rl r ->
      if p <> 0 then invalid_arg "Fabric.tors_of_pod: rail fabric has one pod";
      r.Rail.tors
  | Zo z ->
      if p < 0 || p >= z.Zoo.pods then
        invalid_arg "Fabric.tors_of_pod: pod outside the zoo fabric";
      z.Zoo.tors_of_pod.(p)

let failure_domain t tier =
  match t with
  | Ft f -> Fat_tree.fabric_duplex_links f tier
  | Ls l -> Leaf_spine.spine_leaf_duplex_links l
  | Rl r -> Rail.spine_tor_duplex_links r
  | Zo z -> Zoo.inter_switch_duplex_links z

let fail_random t ~rng ~tier ~fraction () =
  if not (fraction >= 0.0 && fraction <= 1.0) then
    invalid_arg "Fabric.fail_random: fraction in [0,1]";
  let g = graph t in
  let candidates =
    Array.to_list (failure_domain t tier)
    |> List.filter (fun id -> Graph.link_up g id)
    |> Array.of_list
  in
  let n = Array.length candidates in
  let count = int_of_float (Float.round (fraction *. float_of_int n)) in
  let host_list = Array.to_list (hosts t) in
  let attempt () =
    let picks =
      Peel_util.Rng.sample_without_replacement rng n count
      |> List.map (fun i -> candidates.(i))
    in
    List.iter (Graph.fail_link g) picks;
    if Graph.connected g host_list then Some picks
    else begin
      List.iter (Graph.recover_link g) picks;
      None
    end
  in
  let rec retry attempts =
    if attempts = 0 then
      failwith "Fabric.fail_random: could not keep hosts connected"
    else
      match attempt () with Some picks -> picks | None -> retry (attempts - 1)
  in
  retry 100

let recover_link t id = Graph.recover_link (graph t) id

let describe t =
  match t with
  | Ft f ->
      Printf.sprintf "fat-tree k=%d (%d hosts, %d gpus)" f.Fat_tree.k
        (Fat_tree.num_hosts f) (Fat_tree.num_gpus f)
  | Ls l ->
      Printf.sprintf "leaf-spine %dx%d (%d hosts, %d gpus)"
        (Array.length l.Leaf_spine.spines)
        (Array.length l.Leaf_spine.leaves)
        (Leaf_spine.num_hosts l) (Leaf_spine.num_gpus l)
  | Rl r ->
      Printf.sprintf "rail-optimized %d rails x %d groups x %d servers (%d gpus)"
        r.Rail.rails r.Rail.groups r.Rail.servers_per_group (Rail.num_gpus r)
  | Zo z -> Zoo.describe z

(* ------------------------------------------------------------------ *)
(* Introspection helpers                                               *)
(* ------------------------------------------------------------------ *)

let layer_of t v =
  match t with
  | Zo z -> Zoo.layer_of z v
  | Ft _ | Ls _ | Rl _ -> (
      match (Graph.node (graph t) v).Graph.kind with
      | Graph.Gpu | Graph.Host -> 0
      | Graph.Tor -> 1
      | Graph.Agg | Graph.Spine -> 2
      | Graph.Core -> 3)

let num_layers = function
  | Ft _ -> 4
  | Ls _ | Rl _ -> 3
  | Zo z -> Zoo.num_layers z

let switches_at_layer t l =
  match t with
  | Zo z -> Zoo.switches_at_layer z l
  | Ft _ | Ls _ | Rl _ ->
      Graph.nodes (graph t) |> Array.to_list
      |> List.filter_map (fun (nd : Graph.node) ->
             if Graph.kind_is_switch nd.Graph.kind && layer_of t nd.Graph.id = l
             then Some nd.Graph.id
             else None)
      |> Array.of_list

let num_endpoints t = Array.length (endpoints t)
