type t = {
  spines : int array;
  leaves : int array;
  hosts : int array;
  gpus : int array;
  graph : Graph.t;
  hosts_per_leaf : int;
  gpus_per_host : int;
  leaf_of_host : int array;
  host_of_gpu : int array;
  hosts_of_leaf : int array array;
  gpus_of_host : int array array;
}

(* Fabric links run at 100 Gb/s (12.5e9 B/s) with 500 ns latency; a
   host's NVLink to its GPUs at 900e9 B/s. *)
let link_bw = 12.5e9
let nvlink_bw = 900e9
let link_latency = 500e-9

let create ?(gpus_per_host = 0) ~spines ~leaves ~hosts_per_leaf () =
  if spines < 1 || leaves < 1 || hosts_per_leaf < 1 then
    invalid_arg "Leaf_spine.create: all counts must be >= 1";
  if gpus_per_host < 0 then invalid_arg "Leaf_spine.create: gpus_per_host >= 0";
  let b = Graph.Builder.create () in
  let duplex = Graph.Builder.add_duplex b ~latency:link_latency in
  (* Leaves are "pod 0" ToRs so the prefix engine can address them. *)
  let leaf_ids =
    Array.init leaves (fun i -> Graph.Builder.add_node b Tor ~pod:0 ~idx:i)
  in
  let spine_ids =
    Array.init spines (fun i -> Graph.Builder.add_node b Spine ~pod:(-1) ~idx:i)
  in
  Array.iter
    (fun leaf ->
      Array.iter (fun spine -> ignore (duplex ~bandwidth:link_bw leaf spine)) spine_ids)
    leaf_ids;
  let hosts_of_leaf = Array.make leaves [||] in
  let rev_hosts = ref [] and rev_gpus = ref [] and rev_gpus_of_host = ref [] in
  Array.iteri
    (fun li leaf ->
      hosts_of_leaf.(li) <-
        Array.init hosts_per_leaf (fun i ->
            let h = Graph.Builder.add_node b Host ~pod:0 ~idx:i in
            ignore (duplex ~bandwidth:link_bw leaf h);
            rev_hosts := h :: !rev_hosts;
            let gpus =
              Array.init gpus_per_host (fun gi ->
                  let g = Graph.Builder.add_node b Gpu ~pod:0 ~idx:gi in
                  (* NVLink to the server's NVSwitch (the Host node)
                     plus the GPU's dedicated 100G NIC to the leaf. *)
                  ignore
                    (Graph.Builder.add_duplex b ~latency:100e-9 ~bandwidth:nvlink_bw
                       h g);
                  ignore (duplex ~bandwidth:link_bw leaf g);
                  rev_gpus := g :: !rev_gpus;
                  g)
            in
            rev_gpus_of_host := gpus :: !rev_gpus_of_host;
            h))
    leaf_ids;
  let graph = Graph.Builder.finish b in
  let hosts = Array.of_list (List.rev !rev_hosts) in
  let gpus = Array.of_list (List.rev !rev_gpus) in
  let gpus_of_host = Array.of_list (List.rev !rev_gpus_of_host) in
  let leaf_of_host = Array.make (Graph.num_nodes graph) (-1) in
  let host_of_gpu = Array.make (Graph.num_nodes graph) (-1) in
  Array.iteri
    (fun li hs -> Array.iter (fun h -> leaf_of_host.(h) <- leaf_ids.(li)) hs)
    hosts_of_leaf;
  Array.iteri
    (fun hi gs -> Array.iter (fun g -> host_of_gpu.(g) <- hosts.(hi)) gs)
    gpus_of_host;
  {
    spines = spine_ids;
    leaves = leaf_ids;
    hosts;
    gpus;
    graph;
    hosts_per_leaf;
    gpus_per_host;
    leaf_of_host;
    host_of_gpu;
    hosts_of_leaf;
    gpus_of_host;
  }

let num_hosts t = Array.length t.hosts
let num_gpus t = Array.length t.gpus

let spine_leaf_duplex_links t =
  let g = t.graph in
  Graph.duplex_ids g
  |> Array.to_list
  |> List.filter (fun id ->
         let l = Graph.link g id in
         let open Graph in
         let sk = (node g l.src).kind and dk = (node g l.dst).kind in
         (sk = Tor && dk = Spine) || (sk = Spine && dk = Tor))
  |> Array.of_list
