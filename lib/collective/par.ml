open Peel_topology
open Peel_sim
open Peel_workload
module Tree = Peel_steiner.Tree

let supported = function
  | Scheme.Ring | Scheme.Btree | Scheme.Dbtree | Scheme.Optimal | Scheme.Peel ->
      true
  | Scheme.Orca | Scheme.Peel_prog_cores | Scheme.Peel_multitree _ -> false

(* ------------------------------------------------------------------ *)
(* DAG builder: growable edge store, frozen to the CSR form Soa wants. *)
(* ------------------------------------------------------------------ *)

(* Multimaps as [(key, value list) Hashtbl.t]: [push] prepends, so a
   bucket lists its values newest first. *)
let bucket tbl k = Option.value (Hashtbl.find_opt tbl k) ~default:[]
let push tbl k v = Hashtbl.replace tbl k (v :: bucket tbl k)

type column = { mutable a : int array; mutable n : int }

let column () = { a = Array.make 64 0; n = 0 }

let append c v =
  if c.n = Array.length c.a then begin
    let a = Array.make (2 * c.n) 0 in
    Array.blit c.a 0 a 0 c.n;
    c.a <- a
  end;
  c.a.(c.n) <- v;
  c.n <- c.n + 1

(* Edges are numbered in the order they are added.  [b_edges] holds
   (link, deliver) per edge and [b_succs] (from, next) per successor
   link, both interleaved; [freeze] sorts the pairs into CSR by [from],
   keeping each edge's successors in the order they were added. *)
type builder = { b_edges : column; b_succs : column; b_roots : column }

let b_create () = { b_edges = column (); b_succs = column (); b_roots = column () }

let add_edge b ~link ~deliver =
  let e = b.b_edges.n / 2 in
  append b.b_edges link;
  append b.b_edges deliver;
  e

(* Hang edge [e] under [incoming], or release it at the source. *)
let attach b ~incoming e =
  match incoming with
  | None -> append b.b_roots e
  | Some pe ->
      append b.b_succs pe;
      append b.b_succs e

let freeze b : Soa.dag =
  let edges = b.b_edges.a and pairs = b.b_succs.a in
  let n = b.b_edges.n / 2 and np = b.b_succs.n / 2 in
  let off = Array.make (n + 1) 0 in
  for i = 0 to np - 1 do
    let from = pairs.(2 * i) in
    off.(from + 1) <- off.(from + 1) + 1
  done;
  for e = 0 to n - 1 do
    off.(e + 1) <- off.(e + 1) + off.(e)
  done;
  let next = Array.sub off 0 n and succ = Array.make np 0 in
  for i = 0 to np - 1 do
    let from = pairs.(2 * i) in
    succ.(next.(from)) <- pairs.((2 * i) + 1);
    next.(from) <- next.(from) + 1
  done;
  {
    Soa.d_link = Array.init n (fun e -> edges.(2 * e));
    d_deliver = Array.init n (fun e -> edges.((2 * e) + 1));
    d_succ_off = off;
    d_succ = succ;
    d_roots = Array.sub b.b_roots.a 0 b.b_roots.n;
  }

(* A unicast logical hop: the chain of links [path], entered after
   [incoming] arrives (or at flow release when [None]); the final link
   delivers at [deliver] (or -1).  Returns the chain's last edge. *)
let rec chain b ~incoming ~deliver = function
  | [] -> invalid_arg "Par.chain: empty path"
  | lid :: rest ->
      let e = add_edge b ~link:lid ~deliver:(if rest = [] then deliver else -1) in
      attach b ~incoming e;
      if rest = [] then e else chain b ~incoming:(Some e) ~deliver rest

(* ------------------------------------------------------------------ *)
(* Scheme routes.  Edge enumeration is preorder (chains in sibling
   order, then their subtrees), which preserves the sequential FIFO
   order of same-instant reservations on shared links.                 *)
(* ------------------------------------------------------------------ *)

type route = { dag : Soa.dag; trees : int array }

let mem_dest dest_set node = if Hashtbl.mem dest_set node then node else -1

let of_chains b = { dag = freeze b; trees = [||] }

let ring fabric paths dest_set (spec : Spec.collective) =
  let b = b_create () in
  let r =
    Peel_baselines.Ring.schedule fabric ~source:spec.source ~members:spec.members
  in
  let order = r.Peel_baselines.Ring.order in
  let n = Array.length order in
  let prev = ref None in
  for i = 0 to n - 2 do
    let path = Paths.links paths order.(i) order.(i + 1) in
    let last =
      chain b ~incoming:!prev ~deliver:(mem_dest dest_set order.(i + 1)) path
    in
    prev := Some last
  done;
  of_chains b

let btree fabric paths dest_set (spec : Spec.collective) =
  let b = b_create () in
  let bt =
    Peel_baselines.Binary_tree.schedule fabric ~source:spec.source
      ~members:spec.members
  in
  let order = bt.Peel_baselines.Binary_tree.order in
  let n = Array.length order in
  let rec emit pos ~incoming =
    (* Both children's paths before either chain: the two queries share
       a source, so one destination-bounded search serves both, where
       emitting the first child's subtree in between would restart it. *)
    let hops =
      List.filter_map
        (fun child ->
          if child < n then Some (child, Paths.links paths order.(pos) order.(child))
          else None)
        [ (2 * pos) + 1; (2 * pos) + 2 ]
    in
    List.iter
      (fun (child, path) ->
        let last = chain b ~incoming ~deliver:(mem_dest dest_set order.(child)) path in
        emit child ~incoming:(Some last))
      hops
  in
  emit 0 ~incoming:None;
  of_chains b

let dbtree fabric paths dest_set (spec : Spec.collective) =
  let dt =
    Peel_baselines.Double_binary_tree.schedule fabric ~source:spec.source
      ~members:spec.members
  in
  let one edges =
    let b = b_create () in
    let tbl = Hashtbl.create 64 in
    List.iter (fun (p, c) -> push tbl p c) edges;
    let rec emit node ~incoming =
      List.iter
        (fun child ->
          let path = Paths.links paths node child in
          let last = chain b ~incoming ~deliver:(mem_dest dest_set child) path in
          emit child ~incoming:(Some last))
        (List.rev (bucket tbl node))
    in
    emit spec.source ~incoming:None;
    of_chains b
  in
  (* Even chunks ride tree A, odd chunks tree B: each rank is interior
     in at most one tree, so per-rank send load stays ~1 message. *)
  [|
    one dt.Peel_baselines.Double_binary_tree.edges_a;
    one dt.Peel_baselines.Double_binary_tree.edges_b;
  |]

(* Multicast trees, each released from its root as one unit.  [hang b
   node e] adds edges that forward from [node] once tree edge [e] has
   delivered there, ahead of the tree edges below [node]. *)
let multicast ?(hang = fun _ _ _ -> ()) dest_set trees =
  let b = b_create () in
  List.iter
    (fun tree ->
      let rec descend v ~incoming =
        List.iter
          (fun (child, lid) ->
            let e = add_edge b ~link:lid ~deliver:(mem_dest dest_set child) in
            attach b ~incoming e;
            hang b child e;
            descend child ~incoming:(Some e))
          (Tree.children tree v)
      in
      descend (Tree.root tree) ~incoming:None)
    trees;
  {
    dag = freeze b;
    trees =
      Array.of_list
        (List.map (fun t -> List.length (Tree.children t (Tree.root t))) trees);
  }

let dest_set_of dests =
  let dest_set = Hashtbl.create (2 * List.length dests) in
  List.iter (fun d -> Hashtbl.replace dest_set d ()) dests;
  dest_set

let of_path ~deliver path =
  let b = b_create () in
  ignore (chain b ~incoming:None ~deliver path);
  of_chains b

let of_trees ~dests trees = multicast (dest_set_of dests) trees

let routes fabric paths scheme (spec : Spec.collective) =
  let dest_set = dest_set_of spec.dests in
  let peel_trees () =
    match Peel.Plan.packet_trees fabric ~source:spec.source ~dests:spec.dests with
    | [] -> failwith "Par: empty PEEL plan"
    | trees -> trees
  in
  match scheme with
  | Scheme.Ring -> [| ring fabric paths dest_set spec |]
  | Scheme.Btree -> [| btree fabric paths dest_set spec |]
  | Scheme.Dbtree -> dbtree fabric paths dest_set spec
  | Scheme.Optimal -> (
      match Peel.multicast_tree fabric ~source:spec.source ~dests:spec.dests with
      | None -> failwith "Par: destinations unreachable (optimal)"
      | Some tree -> [| multicast dest_set [ tree ] |])
  | Scheme.Peel -> [| multicast dest_set (peel_trees ()) |]
  | Scheme.Peel_prog_cores ->
      let peel = peel_trees () in
      let refined =
        match Peel.multicast_tree fabric ~source:spec.source ~dests:spec.dests with
        | Some t -> [ t ]
        | None -> peel
      in
      [| multicast dest_set peel; multicast dest_set refined |]
  | Scheme.Peel_multitree n -> (
      (* Edge-diverse greedy trees, one per salt: the §2.3
         multicast-vs-multipath experiment. *)
      let g = Fabric.graph fabric in
      let salted =
        List.filter_map
          (fun salt ->
            Peel_steiner.Layer_peel.build ~salt g ~source:spec.source
              ~dests:spec.dests)
          (List.init (max 1 n) Fun.id)
      in
      match salted with
      | [] -> failwith "Par: destinations unreachable (multitree)"
      | trees -> Array.of_list (List.map (fun t -> multicast dest_set [ t ]) trees))
  | Scheme.Orca -> invalid_arg "Par.routes: Orca forwards over its plan (Par.orca)"

let orca paths (spec : Spec.collective) (plan : Peel_baselines.Orca.plan) =
  (* Each agent relays to its server siblings in descending member
     order, ahead of its own tree children. *)
  let relays_of = Hashtbl.create 16 in
  List.iter (fun (agent, m) -> push relays_of agent m) plan.Peel_baselines.Orca.relays;
  let dest_set = dest_set_of spec.dests in
  let hang b agent e =
    List.iter
      (fun m ->
        ignore
          (chain b ~incoming:(Some e) ~deliver:(mem_dest dest_set m)
             (Paths.links paths agent m)))
      (bucket relays_of agent)
  in
  multicast ~hang dest_set [ plan.Peel_baselines.Orca.tree ]

let flatten_spec fabric paths scheme (spec : Spec.collective) ~chunks : Soa.flow =
  let chunk_bytes = spec.bytes /. float_of_int chunks in
  let dags =
    if spec.dests = [] then
      (* Destination-less collectives complete instantly (the
         sequential launch does the same). *)
      [|
        {
          Soa.d_link = [||];
          d_deliver = [||];
          d_succ_off = [| 0 |];
          d_succ = [||];
          d_roots = [||];
        };
      |]
    else if not (supported scheme) then
      invalid_arg
        (Printf.sprintf "Par.flatten: scheme %s is not shardable"
           (Scheme.to_string scheme))
    else Array.map (fun r -> r.dag) (routes fabric paths scheme spec)
  in
  {
    Soa.f_id = spec.id;
    f_arrival = spec.arrival;
    f_chunks = chunks;
    f_chunk_bytes = chunk_bytes;
    f_expected = chunks * List.length spec.dests;
    f_dags = dags;
  }

let flatten fabric paths ~chunks scheme specs =
  if chunks < 1 then invalid_arg "Par.flatten: chunks >= 1";
  Array.of_list
    (List.map (fun spec -> flatten_spec fabric paths scheme spec ~chunks) specs)

let run ?(chunks = 8) ?jobs ?(audit = false) fabric scheme specs =
  let jobs =
    match jobs with Some j -> j | None -> Peel_util.Pool.default_jobs ()
  in
  let paths = Paths.create ~ecmp:true fabric in
  let flows = flatten fabric paths ~chunks scheme specs in
  let links = Soa.links_of_graph (Fabric.graph fabric) in
  let min_bytes =
    Array.fold_left
      (fun acc (f : Soa.flow) -> Float.min acc f.Soa.f_chunk_bytes)
      infinity flows
  in
  let min_bytes = if Float.is_finite min_bytes then min_bytes else 1.0 in
  let sharding = Soa.shard fabric ~jobs ~min_bytes in
  let plan = Shard.plan ~links ~sharding flows in
  Shard.run ~audit plan
