open Peel_topology

type links = {
  l_n : int;
  l_src : int array;
  l_dst : int array;
  l_bw : float array;
  l_lat : float array;
}

let links_of_graph g =
  let n = Graph.num_links g in
  let src = Array.make n 0
  and dst = Array.make n 0
  and bw = Array.make n 0.0
  and lat = Array.make n 0.0 in
  for lid = 0 to n - 1 do
    let l = Graph.link g lid in
    src.(lid) <- l.Graph.src;
    dst.(lid) <- l.Graph.dst;
    bw.(lid) <- l.Graph.bandwidth;
    lat.(lid) <- l.Graph.latency
  done;
  { l_n = n; l_src = src; l_dst = dst; l_bw = bw; l_lat = lat }

type sharding = {
  s_n : int;
  s_of_node : int array;
  s_of_link : int array;
  s_lookahead : float;
}

(* The margin under the true minimum cross-boundary delay: large enough
   to absorb the few ulps the per-hop float arithmetic can lose, vastly
   smaller than any real event spacing. *)
let lookahead_haircut = 1.0 -. 1e-6

let shard fabric ~jobs ~min_bytes =
  if jobs < 1 then invalid_arg "Soa.shard: jobs >= 1";
  if not (min_bytes > 0.0) then invalid_arg "Soa.shard: min_bytes > 0";
  let g = Fabric.graph fabric in
  let nshards = max 1 (min jobs (Fabric.pods fabric)) in
  let nnodes = Graph.num_nodes g and nlinks = Graph.num_links g in
  if nshards = 1 then
    (* Everything on shard 0 and no boundary link: one window runs it all. *)
    {
      s_n = 1;
      s_of_node = Array.make nnodes 0;
      s_of_link = Array.make nlinks 0;
      s_lookahead = infinity;
    }
  else begin
    let of_node =
      Array.init nnodes (fun v ->
          let nd = Graph.node g v in
          if nd.Graph.pod >= 0 then nd.Graph.pod mod nshards
          else nd.Graph.idx mod nshards)
    in
    let of_link = Array.make nlinks 0 in
    let look = ref infinity in
    for lid = 0 to nlinks - 1 do
      let l = Graph.link g lid in
      of_link.(lid) <- of_node.(l.Graph.src);
      if of_node.(l.Graph.src) <> of_node.(l.Graph.dst) then begin
        let d = l.Graph.latency +. (min_bytes /. l.Graph.bandwidth) in
        if d < !look then look := d
      end
    done;
    {
      s_n = nshards;
      s_of_node = of_node;
      s_of_link = of_link;
      s_lookahead = !look *. lookahead_haircut;
    }
  end

type dag = {
  d_link : int array;
  d_deliver : int array;
  d_succ_off : int array;
  d_succ : int array;
  d_roots : int array;
}

let dag_edges d = Array.length d.d_link

let validate_dag links d =
  let n = dag_edges d in
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  if Array.length d.d_deliver <> n then err "deliver array length %d <> %d" (Array.length d.d_deliver) n
  else if Array.length d.d_succ_off <> n + 1 then
    err "succ_off length %d <> %d" (Array.length d.d_succ_off) (n + 1)
  else begin
    let bad = ref None in
    Array.iteri
      (fun e lid ->
        if !bad = None && (lid < 0 || lid >= links.l_n) then
          bad := Some (Printf.sprintf "edge %d: link %d out of range" e lid))
      d.d_link;
    for i = 0 to n - 1 do
      if !bad = None && d.d_succ_off.(i) > d.d_succ_off.(i + 1) then
        bad := Some (Printf.sprintf "succ_off not monotone at %d" i)
    done;
    if !bad = None && n > 0 && d.d_succ_off.(n) <> Array.length d.d_succ then
      bad := Some "succ_off does not cover d_succ";
    Array.iter
      (fun s ->
        if !bad = None && (s < 0 || s >= n) then
          bad := Some (Printf.sprintf "successor %d out of range" s))
      d.d_succ;
    Array.iter
      (fun r ->
        if !bad = None && (r < 0 || r >= n) then
          bad := Some (Printf.sprintf "root %d out of range" r))
      d.d_roots;
    match !bad with None -> Ok () | Some m -> Error m
  end

type flow = {
  f_id : int;
  f_arrival : float;
  f_chunks : int;
  f_chunk_bytes : float;
  f_expected : int;
  f_dags : dag array;
}

let flow_max_edges f =
  Array.fold_left (fun acc d -> max acc (dag_edges d)) 0 f.f_dags
