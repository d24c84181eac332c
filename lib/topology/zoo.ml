module Rng = Peel_util.Rng

type cls = Abfattree | Vl2 | Jellyfish | Xpander

let cls_to_string = function
  | Abfattree -> "abfattree"
  | Vl2 -> "vl2"
  | Jellyfish -> "jellyfish"
  | Xpander -> "xpander"

let all_classes = [ Abfattree; Vl2; Jellyfish; Xpander ]

type params =
  | P_abfattree of { k : int; hosts_per_tor : int }
  | P_vl2 of { da : int; di : int; hosts_per_tor : int }
  | P_jellyfish of {
      switches : int;
      net_degree : int;
      hosts_per_tor : int;
      seed : int;
    }
  | P_xpander of {
      net_degree : int;
      lift : int;
      hosts_per_tor : int;
      seed : int;
    }

type t = {
  params : params;
  graph : Graph.t;
  pods : int;
  tors : int array;
  tors_of_pod : int array array;
  hosts : int array;
  tor_of_host : int array;
  layer_of : int array;
  layered : bool;
}

let cls t =
  match t.params with
  | P_abfattree _ -> Abfattree
  | P_vl2 _ -> Vl2
  | P_jellyfish _ -> Jellyfish
  | P_xpander _ -> Xpander

let num_hosts t = Array.length t.hosts

let num_switches t =
  Array.fold_left
    (fun acc (nd : Graph.node) ->
      if Graph.kind_is_switch nd.Graph.kind then acc + 1 else acc)
    0
    (Graph.nodes t.graph)

let layer_of t v = t.layer_of.(v)
let num_layers t = 1 + Array.fold_left max 0 t.layer_of

let switches_at_layer t l =
  Graph.nodes t.graph |> Array.to_list
  |> List.filter_map (fun (nd : Graph.node) ->
         if Graph.kind_is_switch nd.Graph.kind && t.layer_of.(nd.Graph.id) = l
         then Some nd.Graph.id
         else None)
  |> Array.of_list

let inter_switch_duplex_links t =
  let g = t.graph in
  Graph.duplex_ids g |> Array.to_list
  |> List.filter (fun id ->
         let l = Graph.link g id in
         Graph.kind_is_switch (Graph.node g l.Graph.src).Graph.kind
         && Graph.kind_is_switch (Graph.node g l.Graph.dst).Graph.kind)
  |> Array.of_list

let describe t =
  match t.params with
  | P_abfattree { k; _ } ->
      Printf.sprintf "zoo abfattree k=%d (%d hosts, %d pods)" k (num_hosts t)
        t.pods
  | P_vl2 { da; di; _ } ->
      Printf.sprintf "zoo vl2 da=%d di=%d (%d hosts, %d racks)" da di
        (num_hosts t) (Array.length t.tors)
  | P_jellyfish { switches; net_degree; seed; _ } ->
      Printf.sprintf "zoo jellyfish n=%d r=%d seed=%d (%d hosts)" switches
        net_degree seed (num_hosts t)
  | P_xpander { net_degree; lift; seed; _ } ->
      Printf.sprintf "zoo xpander d=%d lift=%d seed=%d (%d switches, %d hosts)"
        net_degree lift seed (num_switches t) (num_hosts t)

(* ------------------------------------------------------------------ *)
(* Validation (structural: link up/down state never matters here)      *)
(* ------------------------------------------------------------------ *)

let structurally_connected g =
  let n = Graph.num_nodes g in
  if n = 0 then true
  else begin
    let seen = Array.make n false in
    let queue = Queue.create () in
    seen.(0) <- true;
    Queue.push 0 queue;
    let count = ref 1 in
    while not (Queue.is_empty queue) do
      let v = Queue.pop queue in
      Array.iter
        (fun (u, _) ->
          if not seen.(u) then begin
            seen.(u) <- true;
            incr count;
            Queue.push u queue
          end)
        (Graph.out_links g v)
    done;
    !count = n
  end

let layering_violations t =
  let g = t.graph in
  let n = Graph.num_nodes g in
  let viol = ref [] in
  let add fmt = Printf.ksprintf (fun s -> viol := s :: !viol) fmt in
  if Array.length t.layer_of <> n then
    add "layer_of has %d entries for a %d-node graph"
      (Array.length t.layer_of) n
  else begin
    (* Endpoints on layer 0 wired only to switches; switches above. *)
    for v = 0 to n - 1 do
      let nd = Graph.node g v in
      let lv = t.layer_of.(v) in
      if Graph.kind_is_switch nd.Graph.kind then begin
        if lv < 1 then
          add "switch %d sits on endpoint layer %d (switches live on >= 1)" v
            lv
      end
      else begin
        if lv <> 0 then add "endpoint %d sits on layer %d (endpoints are 0)" v lv;
        Array.iter
          (fun (u, _) ->
            if not (Graph.kind_is_switch (Graph.node g u).Graph.kind) then
              add "endpoint %d wired to non-switch %d" v u)
          (Graph.out_links g v)
      end
    done;
    (* Layers must be contiguous 0..top. *)
    let top = Array.fold_left max 0 t.layer_of in
    for l = 0 to top do
      if not (Array.exists (fun x -> x = l) t.layer_of) then
        add "no node on layer %d (layers must be contiguous)" l
    done;
    (* Edge discipline: layered classes cross exactly one layer per hop
       and reach downward from every upper tier; the flat pseudo
       layering allows same-layer switch cables. *)
    for v = 0 to n - 1 do
      let lv = t.layer_of.(v) in
      Array.iter
        (fun (u, _) ->
          let lu = t.layer_of.(u) in
          let d = abs (lu - lv) in
          if t.layered then begin
            if d <> 1 then
              add "edge %d(layer %d) -> %d(layer %d) does not cross one layer"
                v lv u lu
          end
          else if d > 1 then
            add "edge %d(layer %d) -> %d(layer %d) skips a pseudo-layer" v lv
              u lu)
        (Graph.out_links g v);
      if t.layered && lv >= 2 then
        if
          not
            (Array.exists
               (fun (u, _) -> t.layer_of.(u) = lv - 1)
               (Graph.out_links g v))
        then add "node %d on layer %d has no layer-%d neighbour" v lv (lv - 1)
    done
  end;
  if not (structurally_connected g) then add "generated graph is disconnected";
  List.rev !viol

let invariant_violations t =
  let g = t.graph in
  let viol = ref [] in
  let add fmt = Printf.ksprintf (fun s -> viol := s :: !viol) fmt in
  let count kind =
    Array.fold_left
      (fun acc (nd : Graph.node) -> if nd.Graph.kind = kind then acc + 1 else acc)
      0 (Graph.nodes g)
  in
  let check_count what kind expected =
    let got = count kind in
    if got <> expected then add "%s count %d, expected %d" what got expected
  in
  let check_degrees expected_of =
    Array.iter
      (fun (nd : Graph.node) ->
        let got = Array.length (Graph.out_links g nd.Graph.id) in
        let want = expected_of nd in
        if got <> want then
          add "node %d (%s) has structural degree %d, expected %d" nd.Graph.id
            (Graph.kind_to_string nd.Graph.kind)
            got want)
      (Graph.nodes g)
  in
  let check_tors expected =
    if Array.length t.tors <> expected then
      add "tors array has %d entries, expected %d" (Array.length t.tors)
        expected
  in
  let check_hosts expected =
    if Array.length t.hosts <> expected then
      add "hosts array has %d entries, expected %d" (Array.length t.hosts)
        expected
  in
  (match t.params with
  | P_abfattree { k; hosts_per_tor } ->
      let half = k / 2 in
      check_count "tor" Graph.Tor (k * half);
      check_count "agg" Graph.Agg (k * half);
      check_count "core" Graph.Core (half * half);
      check_count "host" Graph.Host (k * half * hosts_per_tor);
      check_tors (k * half);
      check_hosts (k * half * hosts_per_tor);
      if t.pods <> k then add "pods = %d, expected %d" t.pods k;
      check_degrees (fun nd ->
          match nd.Graph.kind with
          | Graph.Tor -> half + hosts_per_tor
          | Graph.Agg -> k
          | Graph.Core -> k
          | _ -> 1)
  | P_vl2 { da; di; hosts_per_tor } ->
      let ntors = da * di / 4 in
      check_count "tor" Graph.Tor ntors;
      check_count "agg" Graph.Agg di;
      check_count "intermediate" Graph.Core (da / 2);
      check_count "host" Graph.Host (ntors * hosts_per_tor);
      check_tors ntors;
      check_hosts (ntors * hosts_per_tor);
      check_degrees (fun nd ->
          match nd.Graph.kind with
          | Graph.Tor -> 2 + hosts_per_tor
          | Graph.Agg -> da
          | Graph.Core -> di
          | _ -> 1)
  | P_jellyfish { switches; net_degree; hosts_per_tor; _ } ->
      check_count "switch" Graph.Tor switches;
      check_count "host" Graph.Host (switches * hosts_per_tor);
      check_tors switches;
      check_hosts (switches * hosts_per_tor);
      check_degrees (fun nd ->
          match nd.Graph.kind with
          | Graph.Tor -> net_degree + hosts_per_tor
          | _ -> 1)
  | P_xpander { net_degree; lift; hosts_per_tor; _ } ->
      let switches = (net_degree + 1) * lift in
      check_count "switch" Graph.Tor switches;
      check_count "host" Graph.Host (switches * hosts_per_tor);
      check_tors switches;
      check_hosts (switches * hosts_per_tor);
      check_degrees (fun nd ->
          match nd.Graph.kind with
          | Graph.Tor -> net_degree + hosts_per_tor
          | _ -> 1));
  (* Every listed host hangs off the switch recorded for it. *)
  Array.iter
    (fun h ->
      let tor = t.tor_of_host.(h) in
      if tor < 0 then add "host %d has no recorded ToR" h
      else if
        not (Array.exists (fun (u, _) -> u = tor) (Graph.out_links g h))
      then add "host %d not wired to its recorded ToR %d" h tor)
    t.hosts;
  List.rev !viol

let validate t =
  match layering_violations t @ invariant_violations t with
  | [] -> Ok ()
  | vs -> Error vs

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

let err fmt = Printf.ksprintf (fun s -> Error s) fmt

let layer_of_kind = function
  | Graph.Gpu | Graph.Host -> 0
  | Graph.Tor -> 1
  | Graph.Agg | Graph.Spine -> 2
  | Graph.Core -> 3

let assemble b ~params ~layered ~pods ~tors ~tors_of_pod ~host_pairs =
  let graph = Graph.Builder.finish b in
  let n = Graph.num_nodes graph in
  let tor_of_host = Array.make n (-1) in
  List.iter (fun (h, tor) -> tor_of_host.(h) <- tor) host_pairs;
  let hosts = Array.of_list (List.map fst host_pairs) in
  let layer_of =
    Array.init n (fun v -> layer_of_kind (Graph.node graph v).Graph.kind)
  in
  { params; graph; pods; tors; tors_of_pod; hosts; tor_of_host; layer_of;
    layered }

(* Every zoo link runs at 100 Gb/s (12.5e9 B/s) with 500 ns latency,
   the Clos fabrics' defaults. *)
let link_bw = 12.5e9
let link_latency = 500e-9

let add_hosts b ~duplex ~hosts_per_tor ~pod tor acc =
  for j = 0 to hosts_per_tor - 1 do
    let h = Graph.Builder.add_node b Graph.Host ~pod ~idx:j in
    ignore (duplex ~bandwidth:link_bw tor h);
    acc := (h, tor) :: !acc
  done

let gen_abfattree ~k ~hosts_per_tor =
  if k < 4 || k mod 2 <> 0 then
    err "k must be even and >= 4 (got %d)" k
  else if hosts_per_tor < 1 then err "hosts_per_tor must be >= 1"
  else begin
    let half = k / 2 in
    let b = Graph.Builder.create () in
    let duplex = Graph.Builder.add_duplex b ~latency:link_latency in
    let tors_of_pod =
      Array.init k (fun p ->
          Array.init half (fun i -> Graph.Builder.add_node b Graph.Tor ~pod:p ~idx:i))
    in
    let aggs_of_pod =
      Array.init k (fun p ->
          Array.init half (fun a -> Graph.Builder.add_node b Graph.Agg ~pod:p ~idx:a))
    in
    let cores =
      Array.init (half * half) (fun c ->
          Graph.Builder.add_node b Graph.Core ~pod:(-1) ~idx:c)
    in
    Array.iteri
      (fun p tors ->
        Array.iter
          (fun tor ->
            Array.iter
              (fun agg -> ignore (duplex ~bandwidth:link_bw tor agg))
              aggs_of_pod.(p))
          tors)
      tors_of_pod;
    (* A pods (even) use the standard aggregation-to-core striping, B
       pods (odd) the transpose: core (j, a) serves aggregation index j
       in A pods but index a in B pods — F10's AB trick. *)
    Array.iteri
      (fun p aggs ->
        Array.iteri
          (fun a agg ->
            for j = 0 to half - 1 do
              let core =
                if p mod 2 = 0 then cores.((a * half) + j)
                else cores.((j * half) + a)
              in
              ignore (duplex ~bandwidth:link_bw agg core)
            done)
          aggs)
      aggs_of_pod;
    let host_pairs = ref [] in
    Array.iteri
      (fun p tors ->
        Array.iter
          (fun tor -> add_hosts b ~duplex ~hosts_per_tor ~pod:p tor host_pairs)
          tors)
      tors_of_pod;
    let tors = Array.concat (Array.to_list tors_of_pod) in
    Ok
      (assemble b
         ~params:(P_abfattree { k; hosts_per_tor })
         ~layered:true ~pods:k ~tors ~tors_of_pod
         ~host_pairs:(List.rev !host_pairs))
  end

let gen_vl2 ~da ~di ~hosts_per_tor =
  if da < 2 || da mod 2 <> 0 then err "da must be even and >= 2 (got %d)" da
  else if di < 2 || di mod 2 <> 0 then err "di must be even and >= 2 (got %d)" di
  else if hosts_per_tor < 1 then err "hosts_per_tor must be >= 1"
  else begin
    let nints = da / 2 and naggs = di in
    let ntors = da * di / 4 in
    let b = Graph.Builder.create () in
    let duplex = Graph.Builder.add_duplex b ~latency:link_latency in
    let tors =
      Array.init ntors (fun i -> Graph.Builder.add_node b Graph.Tor ~pod:0 ~idx:i)
    in
    let aggs =
      Array.init naggs (fun j -> Graph.Builder.add_node b Graph.Agg ~pod:(-1) ~idx:j)
    in
    let ints =
      Array.init nints (fun m -> Graph.Builder.add_node b Graph.Core ~pod:(-1) ~idx:m)
    in
    Array.iteri
      (fun i tor ->
        ignore (duplex ~bandwidth:link_bw tor aggs.(2 * i mod naggs));
        ignore (duplex ~bandwidth:link_bw tor aggs.(((2 * i) + 1) mod naggs)))
      tors;
    Array.iter
      (fun agg ->
        Array.iter (fun im -> ignore (duplex ~bandwidth:link_bw agg im)) ints)
      aggs;
    let host_pairs = ref [] in
    Array.iter
      (fun tor -> add_hosts b ~duplex ~hosts_per_tor ~pod:0 tor host_pairs)
      tors;
    Ok
      (assemble b
         ~params:(P_vl2 { da; di; hosts_per_tor })
         ~layered:true ~pods:1 ~tors ~tors_of_pod:[| tors |]
         ~host_pairs:(List.rev !host_pairs))
  end

(* Connectivity of a switch-only edge list before any graph is built. *)
let connected_edges n edges =
  let adj = Array.make n [] in
  List.iter
    (fun (u, v) ->
      adj.(u) <- v :: adj.(u);
      adj.(v) <- u :: adj.(v))
    edges;
  let seen = Array.make n false in
  let queue = Queue.create () in
  seen.(0) <- true;
  Queue.push 0 queue;
  let count = ref 1 in
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    List.iter
      (fun u ->
        if not seen.(u) then begin
          seen.(u) <- true;
          incr count;
          Queue.push u queue
        end)
      adj.(v)
  done;
  !count = n

let build_flat b ~duplex ~params ~ntors ~edges ~hosts_per_tor =
  let tors =
    Array.init ntors (fun i -> Graph.Builder.add_node b Graph.Tor ~pod:0 ~idx:i)
  in
  List.iter
    (fun (u, v) -> ignore (duplex ~bandwidth:link_bw tors.(u) tors.(v)))
    edges;
  let host_pairs = ref [] in
  Array.iter
    (fun tor -> add_hosts b ~duplex ~hosts_per_tor ~pod:0 tor host_pairs)
    tors;
  assemble b ~params ~layered:false ~pods:1 ~tors ~tors_of_pod:[| tors |]
    ~host_pairs:(List.rev !host_pairs)

let gen_jellyfish ~switches ~net_degree ~hosts_per_tor ~seed =
  let n = switches and r = net_degree in
  if n < 3 then err "need at least 3 switches (got %d)" n
  else if r < 2 || r >= n then
    err "net_degree must be in [2, switches) (got %d)" r
  else if n * r mod 2 <> 0 then err "switches * net_degree must be even"
  else if hosts_per_tor < 1 then err "hosts_per_tor must be >= 1"
  else begin
    let rng = Rng.create seed in
    (* Configuration-model draw: shuffle the stub multiset and pair
       adjacent stubs, rejecting self-loops, parallel edges and
       disconnected samples — standard Jellyfish construction. *)
    let attempt () =
      let stubs = Array.init (n * r) (fun i -> i / r) in
      Rng.shuffle rng stubs;
      let seen = Hashtbl.create (n * r) in
      let edges = ref [] and ok = ref true in
      for i = 0 to (n * r / 2) - 1 do
        let u = stubs.(2 * i) and v = stubs.((2 * i) + 1) in
        let key = (min u v, max u v) in
        if u = v || Hashtbl.mem seen key then ok := false
        else begin
          Hashtbl.replace seen key ();
          edges := (u, v) :: !edges
        end
      done;
      let edges = List.rev !edges in
      if !ok && connected_edges n edges then Some edges else None
    in
    let rec retry k =
      if k = 0 then None
      else match attempt () with Some e -> Some e | None -> retry (k - 1)
    in
    match retry 500 with
    | None ->
        err "no connected simple %d-regular graph found for seed %d" r seed
    | Some edges ->
        let b = Graph.Builder.create () in
        let duplex = Graph.Builder.add_duplex b ~latency:link_latency in
        Ok
          (build_flat b ~duplex
             ~params:(P_jellyfish { switches; net_degree; hosts_per_tor; seed })
             ~ntors:n ~edges ~hosts_per_tor)
  end

let gen_xpander ~net_degree ~lift ~hosts_per_tor ~seed =
  let d = net_degree and l = lift in
  if d < 2 then err "net_degree must be >= 2 (got %d)" d
  else if l < 1 then err "lift must be >= 1 (got %d)" l
  else if hosts_per_tor < 1 then err "hosts_per_tor must be >= 1"
  else begin
    let rng = Rng.create seed in
    let nswitch = (d + 1) * l in
    let sid u i = (u * l) + i in
    (* One random perfect matching between the copy sets of every base
       edge of K_(d+1): copies (u, i) -- (v, perm(i)). *)
    let attempt () =
      let edges = ref [] in
      for u = 0 to d do
        for v = u + 1 to d do
          let perm = Array.init l Fun.id in
          Rng.shuffle rng perm;
          for i = 0 to l - 1 do
            edges := (sid u i, sid v perm.(i)) :: !edges
          done
        done
      done;
      let edges = List.rev !edges in
      if connected_edges nswitch edges then Some edges else None
    in
    let rec retry k =
      if k = 0 then None
      else match attempt () with Some e -> Some e | None -> retry (k - 1)
    in
    match retry 100 with
    | None -> err "no connected lift found for seed %d" seed
    | Some edges ->
        let b = Graph.Builder.create () in
        let duplex = Graph.Builder.add_duplex b ~latency:link_latency in
        Ok
          (build_flat b ~duplex
             ~params:(P_xpander { net_degree; lift; hosts_per_tor; seed })
             ~ntors:nswitch ~edges ~hosts_per_tor)
  end

(* ------------------------------------------------------------------ *)
(* Public constructors: validate generator output before release       *)
(* ------------------------------------------------------------------ *)

let unwrap name = function
  | Error msg -> invalid_arg (Printf.sprintf "Zoo.%s: %s" name msg)
  | Ok t -> (
      match validate t with
      | Ok () -> t
      | Error vs ->
          invalid_arg
            (Printf.sprintf "Zoo.%s: generated fabric invalid: %s" name
               (String.concat "; " vs)))

let abfattree ?hosts_per_tor ~k () =
  let hosts_per_tor = Option.value hosts_per_tor ~default:(max 1 (k / 2)) in
  unwrap "abfattree" (gen_abfattree ~k ~hosts_per_tor)

let vl2 ?(hosts_per_tor = 2) ~da ~di () =
  unwrap "vl2" (gen_vl2 ~da ~di ~hosts_per_tor)

let jellyfish ?(hosts_per_tor = 1) ~switches ~net_degree ~seed () =
  unwrap "jellyfish" (gen_jellyfish ~switches ~net_degree ~hosts_per_tor ~seed)

let xpander ?(hosts_per_tor = 1) ~net_degree ~lift ~seed () =
  unwrap "xpander" (gen_xpander ~net_degree ~lift ~hosts_per_tor ~seed)

(* ------------------------------------------------------------------ *)
(* Per-epoch optical reconfiguration                                   *)
(* ------------------------------------------------------------------ *)

module Reconfig = struct
  type epoch = { at : float; fail : int list; recover : int list }

  module S = Set.Make (Int)

  let schedule t ~rng ~epochs ~period ~fraction =
    if epochs < 1 then invalid_arg "Zoo.Reconfig.schedule: epochs must be >= 1";
    if period <= 0.0 || not (Float.is_finite period) then
      invalid_arg "Zoo.Reconfig.schedule: period must be positive";
    if fraction < 0.0 || fraction >= 1.0 then
      invalid_arg "Zoo.Reconfig.schedule: fraction in [0,1)";
    let g = t.graph in
    let cands = inter_switch_duplex_links t in
    let ncand = Array.length cands in
    let dark = int_of_float (Float.round (fraction *. float_of_int ncand)) in
    let hosts = Array.to_list t.hosts in
    let draw () =
      let rec attempt tries =
        if tries = 0 then
          failwith "Zoo.Reconfig.schedule: could not keep hosts connected"
        else begin
          let picks =
            Rng.sample_without_replacement rng ncand dark
            |> List.map (fun i -> cands.(i))
          in
          List.iter (Graph.fail_link g) picks;
          let ok = Graph.connected g hosts in
          List.iter (Graph.recover_link g) picks;
          if ok then S.of_list picks else attempt (tries - 1)
        end
      in
      attempt 100
    in
    let prev = ref S.empty in
    List.init epochs (fun e ->
        let d = draw () in
        let fail = S.elements (S.diff d !prev) in
        let recover = S.elements (S.diff !prev d) in
        prev := d;
        { at = float_of_int e *. period; fail; recover })
end
