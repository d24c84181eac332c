type t = {
  k : int;
  hosts_per_tor : int;
  gpus_per_host : int;
  graph : Graph.t;
  pods : int;
  tors : int array;
  aggs : int array;
  cores : int array;
  hosts : int array;
  gpus : int array;
  tors_of_pod : int array array;
  aggs_of_pod : int array array;
  tor_of_host : int array;
  host_of_gpu : int array;
  hosts_of_tor : int array array;
  gpus_of_host : int array array;
}

(* Fabric links run at 100 Gb/s (12.5e9 B/s) with 500 ns latency; a
   host's NVLink to its GPUs at 900e9 B/s. *)
let link_bw = 12.5e9
let nvlink_bw = 900e9
let link_latency = 500e-9

let create ?hosts_per_tor ?(gpus_per_host = 0) ~k () =
  if k < 2 || k mod 2 <> 0 then
    invalid_arg "Fat_tree.create: k must be even and >= 2";
  let hosts_per_tor = Option.value hosts_per_tor ~default:(k / 2) in
  if hosts_per_tor < 1 then invalid_arg "Fat_tree.create: hosts_per_tor >= 1";
  if gpus_per_host < 0 then invalid_arg "Fat_tree.create: gpus_per_host >= 0";
  let half = k / 2 in
  let b = Graph.Builder.create () in
  let duplex = Graph.Builder.add_duplex b ~latency:link_latency in
  let tors_of_pod =
    Array.init k (fun p ->
        Array.init half (fun i -> Graph.Builder.add_node b Tor ~pod:p ~idx:i))
  in
  let aggs_of_pod =
    Array.init k (fun p ->
        Array.init half (fun i -> Graph.Builder.add_node b Agg ~pod:p ~idx:i))
  in
  let cores =
    Array.init (half * half) (fun i ->
        Graph.Builder.add_node b Core ~pod:(-1) ~idx:i)
  in
  for p = 0 to k - 1 do
    (* Intra-pod full bipartite ToR <-> Agg. *)
    Array.iter
      (fun tor ->
        Array.iter
          (fun agg -> ignore (duplex ~bandwidth:link_bw tor agg))
          aggs_of_pod.(p))
      tors_of_pod.(p);
    (* Agg a of every pod -> cores [a*half .. a*half + half - 1]. *)
    Array.iteri
      (fun a agg ->
        for j = 0 to half - 1 do
          ignore (duplex ~bandwidth:link_bw agg cores.((a * half) + j))
        done)
      aggs_of_pod.(p)
  done;
  (* Hosts under each ToR, GPUs under each host. *)
  let num_tors = k * half in
  let hosts_of_tor = Array.make num_tors [||] in
  let rev_hosts = ref [] and rev_gpus = ref [] in
  let rev_gpus_of_host = ref [] in
  let tor_pos = ref 0 in
  for p = 0 to k - 1 do
    Array.iter
      (fun tor ->
        let hosts =
          Array.init hosts_per_tor (fun i ->
              let h = Graph.Builder.add_node b Host ~pod:p ~idx:i in
              ignore (duplex ~bandwidth:link_bw tor h);
              rev_hosts := h :: !rev_hosts;
              let gpus =
                Array.init gpus_per_host (fun gi ->
                    let g = Graph.Builder.add_node b Gpu ~pod:p ~idx:gi in
                    (* NVLink to the server's NVSwitch (the Host node)
                       plus the GPU's dedicated 100G NIC to the ToR. *)
                    ignore
                      (Graph.Builder.add_duplex b ~latency:100e-9
                         ~bandwidth:nvlink_bw h g);
                    ignore (duplex ~bandwidth:link_bw tor g);
                    rev_gpus := g :: !rev_gpus;
                    g)
              in
              rev_gpus_of_host := gpus :: !rev_gpus_of_host;
              h)
        in
        hosts_of_tor.(!tor_pos) <- hosts;
        incr tor_pos)
      tors_of_pod.(p)
  done;
  let graph = Graph.Builder.finish b in
  let hosts = Array.of_list (List.rev !rev_hosts) in
  let gpus = Array.of_list (List.rev !rev_gpus) in
  let gpus_of_host = Array.of_list (List.rev !rev_gpus_of_host) in
  let tor_of_host = Array.make (Graph.num_nodes graph) (-1) in
  let host_of_gpu = Array.make (Graph.num_nodes graph) (-1) in
  let tors = Array.concat (Array.to_list tors_of_pod) in
  Array.iteri
    (fun ti hs -> Array.iter (fun h -> tor_of_host.(h) <- tors.(ti)) hs)
    hosts_of_tor;
  Array.iteri
    (fun hi gs -> Array.iter (fun g -> host_of_gpu.(g) <- hosts.(hi)) gs)
    gpus_of_host;
  {
    k;
    hosts_per_tor;
    gpus_per_host;
    graph;
    pods = k;
    tors;
    aggs = Array.concat (Array.to_list aggs_of_pod);
    cores;
    hosts;
    gpus;
    tors_of_pod;
    aggs_of_pod;
    tor_of_host;
    host_of_gpu;
    hosts_of_tor;
    gpus_of_host;
  }

let num_hosts t = Array.length t.hosts
let num_gpus t = Array.length t.gpus

let fabric_duplex_links t tier =
  let g = t.graph in
  let keep l =
    let open Graph in
    let sk = (node g l.src).kind and dk = (node g l.dst).kind in
    match tier with
    | `Tor_up -> (sk = Tor && dk = Agg) || (sk = Agg && dk = Tor)
    | `Agg_up -> (sk = Agg && dk = Core) || (sk = Core && dk = Agg)
    | `All ->
        kind_is_switch sk && kind_is_switch dk
  in
  Graph.duplex_ids g
  |> Array.to_list
  |> List.filter (fun id -> keep (Graph.link g id))
  |> Array.of_list
