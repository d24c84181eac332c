type t = {
  rails : int;
  groups : int;
  servers_per_group : int;
  spines : int array;
  tors : int array;
  hosts : int array;
  gpus : int array;
  graph : Graph.t;
  tor_of_gpu : int array;
  host_of_gpu : int array;
  gpus_of_host : int array array;
}

(* Fabric links run at 100 Gb/s (12.5e9 B/s) with 500 ns latency; a
   host's NVLink to its GPUs at 900e9 B/s. *)
let link_bw = 12.5e9
let nvlink_bw = 900e9
let link_latency = 500e-9

let create ~rails ~groups ~servers_per_group ~spines () =
  if rails < 1 || groups < 1 || servers_per_group < 1 || spines < 1 then
    invalid_arg "Rail.create: all counts must be >= 1";
  let b = Graph.Builder.create () in
  let duplex = Graph.Builder.add_duplex b ~latency:link_latency in
  (* Rail ToRs first so their ids (and global indices) are dense. *)
  let tors =
    Array.init (groups * rails) (fun i ->
        Graph.Builder.add_node b Tor ~pod:0 ~idx:i)
  in
  let spine_ids =
    Array.init spines (fun i -> Graph.Builder.add_node b Spine ~pod:(-1) ~idx:i)
  in
  Array.iter
    (fun tor -> Array.iter (fun sp -> ignore (duplex ~bandwidth:link_bw tor sp)) spine_ids)
    tors;
  let rev_hosts = ref [] and rev_gpus = ref [] and rev_gpus_of_host = ref [] in
  for g = 0 to groups - 1 do
    for s = 0 to servers_per_group - 1 do
      let host = Graph.Builder.add_node b Host ~pod:0 ~idx:s in
      rev_hosts := host :: !rev_hosts;
      let gpus_here =
        Array.init rails (fun r ->
            let gpu = Graph.Builder.add_node b Gpu ~pod:0 ~idx:r in
            (* NVLink to the server's NVSwitch + the rail NIC. *)
            ignore (Graph.Builder.add_duplex b ~latency:100e-9 ~bandwidth:nvlink_bw host gpu);
            ignore (duplex ~bandwidth:link_bw tors.((g * rails) + r) gpu);
            rev_gpus := gpu :: !rev_gpus;
            gpu)
      in
      rev_gpus_of_host := gpus_here :: !rev_gpus_of_host
    done
  done;
  let graph = Graph.Builder.finish b in
  let hosts = Array.of_list (List.rev !rev_hosts) in
  let gpus = Array.of_list (List.rev !rev_gpus) in
  let gpus_of_host = Array.of_list (List.rev !rev_gpus_of_host) in
  let tor_of_gpu = Array.make (Graph.num_nodes graph) (-1) in
  let host_of_gpu = Array.make (Graph.num_nodes graph) (-1) in
  Array.iteri
    (fun hi ghost ->
      let group = hi / servers_per_group in
      Array.iteri
        (fun r gpu ->
          tor_of_gpu.(gpu) <- tors.((group * rails) + r);
          host_of_gpu.(gpu) <- hosts.(hi))
        ghost)
    gpus_of_host;
  {
    rails;
    groups;
    servers_per_group;
    spines = spine_ids;
    tors;
    hosts;
    gpus;
    graph;
    tor_of_gpu;
    host_of_gpu;
    gpus_of_host;
  }

let num_gpus t = Array.length t.gpus

let spine_tor_duplex_links t =
  let g = t.graph in
  Graph.duplex_ids g
  |> Array.to_list
  |> List.filter (fun id ->
         let l = Graph.link g id in
         let open Graph in
         let sk = (node g l.src).kind and dk = (node g l.dst).kind in
         (sk = Tor && dk = Spine) || (sk = Spine && dk = Tor))
  |> Array.of_list
