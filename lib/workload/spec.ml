open Peel_topology
module Rng = Peel_util.Rng

type collective = {
  id : int;
  arrival : float;
  source : int;
  dests : int list;
  members : int list;
  bytes : float;
}

let gpus_per_server fabric =
  match fabric with
  | Fabric.Ft f -> max 1 f.Fat_tree.gpus_per_host
  | Fabric.Ls l -> max 1 l.Leaf_spine.gpus_per_host
  | Fabric.Rl r -> r.Rail.rails
  | Fabric.Zo _ -> 1

let place fabric rng ~scale ?(fragmentation = 0.0) () =
  let endpoints = Fabric.endpoints fabric in
  let n = Array.length endpoints in
  if scale < 2 || scale > n then
    invalid_arg "Spec.place: scale must be in [2, #endpoints]";
  if not (fragmentation >= 0.0 && fragmentation <= 1.0) then
    invalid_arg "Spec.place: fragmentation in [0,1]";
  let gps = gpus_per_server fabric in
  (* Bin-packing granularity: schedulers allocate whole pods to
     pod-scale jobs, whole racks to rack-scale jobs, whole servers
     below that — the locality assumption the paper leans on [3]. *)
  let tors = Array.length (Fabric.tors fabric) in
  let eps_per_rack = max gps (n / max 1 tors) in
  let eps_per_pod = max eps_per_rack (n / max 1 (Fabric.pods fabric)) in
  let gran =
    if scale >= eps_per_pod then eps_per_pod
    else if scale >= eps_per_rack then eps_per_rack
    else gps
  in
  let max_start = (n - scale) / gran in
  let start = gran * (if max_start > 0 then Rng.int rng (max_start + 1) else 0) in
  let base = List.init scale (fun i -> start + i) in
  let members =
    if fragmentation = 0.0 then base
    else begin
      (* Relocate whole servers with probability [fragmentation]. *)
      let chosen = Array.make n false in
      List.iter (fun i -> chosen.(i) <- true) base;
      let servers = n / gps in
      let base_servers =
        List.sort_uniq compare (List.map (fun i -> i / gps) base)
      in
      let relocated =
        List.concat_map
          (fun s ->
            if Rng.float rng 1.0 < fragmentation then begin
              (* Free this server's slots... *)
              let freed =
                List.filter (fun i -> i / gps = s && chosen.(i)) base
              in
              List.iter (fun i -> chosen.(i) <- false) freed;
              (* ...and occupy the same count on a random free server. *)
              let rec find_free tries =
                if tries = 0 then None
                else begin
                  let s' = Rng.int rng servers in
                  let slots = List.init gps (fun j -> (s' * gps) + j) in
                  if List.for_all (fun i -> not chosen.(i)) slots then Some slots
                  else find_free (tries - 1)
                end
              in
              match find_free 50 with
              | Some slots ->
                  let taken = List.filteri (fun j _ -> j < List.length freed) slots in
                  List.iter (fun i -> chosen.(i) <- true) taken;
                  taken
              | None ->
                  (* No free server found: keep the original placement. *)
                  List.iter (fun i -> chosen.(i) <- true) freed;
                  freed
            end
            else List.filter (fun i -> i / gps = s && chosen.(i)) base)
          base_servers
      in
      relocated
    end
  in
  List.sort compare (List.map (fun i -> endpoints.(i)) members)

let single fabric rng ~scale ~bytes =
  let members = place fabric rng ~scale () in
  let source = List.hd members in
  let dests = List.filter (fun m -> m <> source) members in
  { id = 0; arrival = 0.0; source; dests; members; bytes }

let nic_bandwidth = 12.5e9

let mean_interarrival fabric ~scale ~bytes ~load =
  if not (load > 0.0 && load <= 1.0) then invalid_arg "Spec.mean_interarrival: load in (0,1]";
  if not (bytes > 0.0 && bytes < infinity) then
    invalid_arg "Spec.mean_interarrival: bytes must be finite and > 0";
  let n = Fabric.num_endpoints fabric in
  let capacity = float_of_int n *. nic_bandwidth in
  bytes *. float_of_int scale /. (load *. capacity)

let poisson_broadcasts fabric rng ~n ~scale ~bytes ~load ?(fragmentation = 0.0) () =
  if n < 1 then invalid_arg "Spec.poisson_broadcasts: n must be >= 1";
  let mean = mean_interarrival fabric ~scale ~bytes ~load in
  let rec go i t acc =
    if i >= n then List.rev acc
    else begin
      let arrival = t +. Rng.exponential rng ~mean in
      let members = place fabric rng ~scale ~fragmentation () in
      let marr = Array.of_list members in
      let source = marr.(Rng.int rng (Array.length marr)) in
      let dests = List.filter (fun m -> m <> source) members in
      let c = { id = i; arrival; source; dests; members; bytes } in
      go (i + 1) arrival (c :: acc)
    end
  in
  go 0 0.0 []

type group = {
  g_id : int;
  g_arrival : float;
  g_departure : float;
  g_source : int;
  g_dests : int list;
  g_members : int list;
  g_bytes : float;
}

(* Draw order matters for seed compatibility: all broadcast draws come
   first, then one hold draw per group — the order E17 and the refine
   experiments have always consumed, so same-seed batch workloads are
   unchanged. *)
let poisson_groups fabric rng ~n ~scale ~bytes ~load ~hold
    ?(fragmentation = 0.0) () =
  if n < 1 then invalid_arg "Spec.poisson_groups: n must be >= 1";
  if hold <= 0.0 || not (Float.is_finite hold) then
    invalid_arg "Spec.poisson_groups: hold must be positive";
  poisson_broadcasts fabric rng ~n ~scale ~bytes ~load ~fragmentation ()
  |> List.map (fun c ->
         let life = max 1e-9 (Rng.exponential rng ~mean:hold) in
         {
           g_id = c.id;
           g_arrival = c.arrival;
           g_departure = c.arrival +. life;
           g_source = c.source;
           g_dests = c.dests;
           g_members = c.members;
           g_bytes = c.bytes;
         })

let collective_of_group g =
  {
    id = g.g_id;
    arrival = g.g_arrival;
    source = g.g_source;
    dests = g.g_dests;
    members = g.g_members;
    bytes = g.g_bytes;
  }
