open Peel_topology
open Peel_prefix
module Bits = Peel_util.Bits

type packet = {
  pod_prefix : Cover.prefix option;
  tor_prefix : Cover.prefix;
  pods : int list;
  tors : int list;
  endpoints : int list;
  waste_tors : int list;
}

type t = {
  source : int;
  dests : int list;
  packets : packet list;
  header_bytes : int;
}

let tor_id_bits fabric = Bits.ceil_log2 (max 2 (Fabric.tors_per_pod fabric))
let pod_id_bits fabric = Bits.ceil_log2 (max 2 (Fabric.pods fabric))

let header_bytes_for fabric =
  let m = tor_id_bits fabric in
  let tor_field = m + Bits.ceil_log2 (m + 1) in
  let pod_field =
    if Fabric.pods fabric <= 1 then 0
    else begin
      let mp = pod_id_bits fabric in
      mp + Bits.ceil_log2 (mp + 1)
    end
  in
  Bits.ceil_div (tor_field + pod_field) 8

(* Ascending, in place.  Up to 16 elements an insertion sort: on 12
   ints (2-core x86-64 host) it ran ~5x faster than
   [Array.stable_sort] and allocates nothing.  Groups of that size are
   the service's common case. *)
let sort_ints (a : int array) =
  if Array.length a > 16 then Array.stable_sort Int.compare a
  else
    for i = 1 to Array.length a - 1 do
      let x = a.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && a.(!j) > x do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- x
    done

(* [l] holds distinct ints, accumulated by prepending: ascending, as
   [List.sort] would give, without sorting when the pushes came in
   order. *)
let ascending_of_rev l =
  let rec descending = function
    | (a : int) :: (b :: _ as rest) -> a > b && descending rest
    | [ _ ] | [] -> true
  in
  if descending l then List.rev l else List.sort Int.compare l

let build ?budget fabric ~source ~dests =
  (match budget with
  | Some b when b < 1 -> invalid_arg "Plan.build: budget must be >= 1"
  | Some _ | None -> ());
  let m = tor_id_bits fabric in
  let mp = pod_id_bits fabric in
  let multi_pod = Fabric.pods fabric > 1 in
  (* The destinations, ascending, without repeats or the source. *)
  let ds = Array.of_list dests in
  sort_ints ds;
  let n = ref 0 in
  Array.iter
    (fun d ->
      if d <> source && (!n = 0 || ds.(!n - 1) <> d) then begin
        ds.(!n) <- d;
        incr n
      end)
    ds;
  let n = !n in
  (* One int per destination packing (pod, ToR id, position in [ds]),
     high to low; a ToR's id in its pod is below 2^m by the choice of
     m.  Sorted, the key column is the stable sort by rack: each rack's
     endpoints form an ascending run, and each pod's racks a run of
     runs in ToR-id order — the pod's signature. *)
  let pb = Bits.ceil_log2 (Int.max 2 n) in
  let keys =
    Array.init n (fun i ->
        let tor = Fabric.attach_tor fabric ds.(i) in
        let pod = Fabric.pod_of_tor fabric tor in
        (((pod lsl m) lor Fabric.tor_idx_in_pod fabric tor) lsl pb) lor i)
  in
  sort_ints keys;
  let rack k = keys.(k) lsr pb in
  let dest k = ds.(keys.(k) land (Bits.pow2 pb - 1)) in
  let id_mask = Bits.pow2 m - 1 in
  (* Run [r] is rack [run_rack.(r)], endpoints [keys.(run_at.(r) ..
     run_at.(r+1) - 1)]; pod [q] owns runs [pod_at.(q) .. pod_at.(q+1) - 1]. *)
  let run_rack = Array.make n 0 and run_at = Array.make (n + 1) n in
  let pod_at = Array.make (n + 1) 0 in
  let runs = ref 0 and npods = ref 0 in
  for k = 0 to n - 1 do
    if k = 0 || rack k <> rack (k - 1) then begin
      if k = 0 || rack k lsr m <> rack (k - 1) lsr m then begin
        pod_at.(!npods) <- !runs;
        incr npods
      end;
      run_rack.(!runs) <- rack k;
      run_at.(!runs) <- k;
      incr runs
    end
  done;
  let npods = !npods in
  pod_at.(npods) <- !runs;
  let pod_id q = run_rack.(pod_at.(q)) lsr m in
  (* Pods with identical signatures are adjacent once sorted by
     signature; the stable sort keeps each group's pods ascending. *)
  let compare_signatures q q' =
    let e = pod_at.(q + 1) and e' = pod_at.(q' + 1) in
    let rec go r r' =
      if r = e then if r' = e' then 0 else -1
      else if r' = e' then 1
      else
        let c = Int.compare (run_rack.(r) land id_mask) (run_rack.(r') land id_mask) in
        if c <> 0 then c else go (r + 1) (r' + 1)
    in
    go pod_at.(q) pod_at.(q')
  in
  let by_signature = Array.init npods Fun.id in
  Array.stable_sort compare_signatures by_signature;
  let cover_tors targets =
    match budget with
    | None -> Cover.exact_cover ~m targets
    | Some b -> Cover.budgeted_cover ~m ~budget:b targets
  in
  let packets = ref [] in
  (* One packet: each pod's covered racks, matched against the pod's
     rack runs in one ascending pass. *)
  let emit ~pod_prefix ~tor_prefix qs =
    let size = Cover.block_size ~m tor_prefix in
    let first = tor_prefix.Cover.value * size in
    let tors = ref [] and waste = ref [] and eps = ref [] in
    List.iter
      (fun q ->
        let pod_tors = Fabric.tors_of_pod fabric (pod_id q) in
        let r = ref pod_at.(q) in
        for id = first to Int.min (first + size) (Array.length pod_tors) - 1 do
          let tor = pod_tors.(id) in
          while !r < pod_at.(q + 1) && run_rack.(!r) land id_mask < id do
            incr r
          done;
          tors := tor :: !tors;
          if !r < pod_at.(q + 1) && run_rack.(!r) land id_mask = id then
            for k = run_at.(!r) to run_at.(!r + 1) - 1 do
              eps := dest k :: !eps
            done
          else waste := tor :: !waste
        done)
      qs;
    packets :=
      {
        pod_prefix;
        tor_prefix;
        pods = List.map pod_id qs;
        tors = ascending_of_rev !tors;
        endpoints = ascending_of_rev !eps;
        waste_tors = ascending_of_rev !waste;
      }
      :: !packets
  in
  let g = ref 0 in
  while !g < npods do
    (* The signature group [by_signature.(!g .. e - 1)]. *)
    let q0 = by_signature.(!g) in
    let e = ref (!g + 1) in
    while !e < npods && compare_signatures q0 by_signature.(!e) = 0 do
      incr e
    done;
    let qs = List.init (!e - !g) (fun j -> by_signature.(!g + j)) in
    let tor_covers =
      cover_tors
        (List.init (pod_at.(q0 + 1) - pod_at.(q0)) (fun j ->
             run_rack.(pod_at.(q0) + j) land id_mask))
    in
    if multi_pod then
      List.iter
        (fun pp ->
          let covered = List.filter (fun q -> Cover.covers ~m:mp pp (pod_id q)) qs in
          List.iter
            (fun tp -> emit ~pod_prefix:(Some pp) ~tor_prefix:tp covered)
            tor_covers)
        (Cover.exact_cover ~m:mp (List.map pod_id qs))
    else List.iter (fun tp -> emit ~pod_prefix:None ~tor_prefix:tp qs) tor_covers;
    g := !e
  done;
  {
    source;
    dests = List.init n (fun i -> ds.(i));
    packets =
      List.sort
        (fun a b -> compare (a.pods, a.tor_prefix) (b.pods, b.tor_prefix))
        !packets;
    header_bytes = header_bytes_for fabric;
  }

let num_packets t = List.length t.packets

let waste_tor_count t =
  List.fold_left (fun acc p -> acc + List.length p.waste_tors) 0 t.packets

let packet_tree fabric ~source packet =
  let dests = packet.endpoints @ packet.waste_tors in
  if dests = [] then None
  else Peel_steiner.Layer_peel.build (Fabric.graph fabric) ~source ~dests

let packet_trees fabric ~source ~dests =
  let plan = build fabric ~source ~dests in
  List.filter_map (fun packet -> packet_tree fabric ~source packet) plan.packets

let validate fabric t =
  let fail fmt = Printf.ksprintf (fun s -> Error s) fmt in
  (* Every destination in exactly one packet. *)
  let seen = Hashtbl.create 64 in
  let dup = ref None in
  List.iter
    (fun p ->
      List.iter
        (fun e ->
          if Hashtbl.mem seen e then dup := Some e else Hashtbl.replace seen e ())
        p.endpoints)
    t.packets;
  match !dup with
  | Some e -> fail "endpoint %d delivered by multiple packets" e
  | None ->
      let missing = List.filter (fun d -> not (Hashtbl.mem seen d)) t.dests in
      if missing <> [] then
        fail "endpoints not covered: %s"
          (String.concat "," (List.map string_of_int missing))
      else begin
        (* Waste racks really have no members. *)
        let member_tors =
          List.map (fun d -> Fabric.attach_tor fabric d) t.dests
          |> List.sort_uniq compare
        in
        let bad_waste =
          List.exists
            (fun p -> List.exists (fun w -> List.mem w member_tors) p.waste_tors)
            t.packets
        in
        if bad_waste then fail "a waste rack contains members" else Ok ()
      end
