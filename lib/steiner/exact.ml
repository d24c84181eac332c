open Peel_topology
module Heap = Peel_util.Pairing_heap

let max_terminals = 12

let inf = max_int / 4

(* Dijkstra with unit weights over up links, seeded with per-node initial
   distances; relaxes dp[mask] in place. *)
let relax g dp_mask =
  let heap = Heap.create () in
  Array.iteri
    (fun v d -> if d < inf then Heap.push heap (float_of_int d) v)
    dp_mask;
  while not (Heap.is_empty heap) do
    let d = int_of_float (Heap.min_prio heap) in
    let v = Heap.pop_min heap in
    if d = dp_mask.(v) then
      Array.iter
        (fun (w, lid) ->
          if Graph.link_up g lid && d + 1 < dp_mask.(w) then begin
            dp_mask.(w) <- d + 1;
            Heap.push heap (float_of_int (d + 1)) w
          end)
        (Graph.out_links g v)
  done

let steiner_cost g ~terminals =
  let terminals = List.sort_uniq compare terminals in
  let q = List.length terminals in
  if q > max_terminals then invalid_arg "Exact.steiner_cost: too many terminals";
  if q <= 1 then Some 0
  else begin
    let terms = Array.of_list terminals in
    let n = Graph.num_nodes g in
    let full = (1 lsl q) - 1 in
    let dp = Array.make (full + 1) [||] in
    (* Singletons: distance from each terminal. *)
    for i = 0 to q - 1 do
      let d = Graph.bfs_dist g terms.(i) in
      dp.(1 lsl i) <-
        Array.init n (fun v -> if d.(v) = Graph.unreachable then inf else d.(v))
    done;
    for mask = 1 to full do
      if mask land (mask - 1) <> 0 then begin
        (* At least two bits: merge sub-splits, then relax over edges. *)
        let cur = Array.make n inf in
        let low = mask land -mask in
        (* Enumerate submasks that contain the lowest bit (avoids double
           counting symmetric splits). *)
        let rest = mask lxor low in
        let sub = ref rest in
        let continue = ref true in
        while !continue do
          let s = !sub lor low in
          let t = mask lxor s in
          if s <> mask then begin
            let a = dp.(s) and b = dp.(t) in
            for v = 0 to n - 1 do
              let c = a.(v) + b.(v) in
              if c < cur.(v) then cur.(v) <- c
            done
          end;
          if !sub = 0 then continue := false else sub := (!sub - 1) land rest
        done;
        relax g cur;
        dp.(mask) <- cur
      end
    done;
    let answer = dp.(full).(terms.(0)) in
    if answer >= inf then None else Some answer
  end

(* ------------------------------------------------------------------ *)
(* Exact-comparison oracle (topology zoo, E21)                         *)
(* ------------------------------------------------------------------ *)

module Iset = Set.Make (Int)

let up_neighbors g v =
  Array.to_list (Graph.out_links g v)
  |> List.filter_map (fun (u, lid) ->
         if Graph.link_up g lid then Some u else None)
  |> List.sort_uniq compare

(* A terminal with exactly one live neighbor is {e pendant}: every
   Steiner tree spanning it must use that single edge, so replacing the
   terminal by its neighbor and charging one link is exact — and two
   terminals collapsing onto the same switch merge (their shared
   subtree is counted once by the DP).  Endpoints hang off one ToR in
   every zoo fabric, so a group of q hosts on r racks reduces to r+1
   switch terminals, well below the DP's 3^q wall. *)
let collapse_pendants g terminals =
  let exception Unreachable in
  let rec go cost terms =
    if Iset.cardinal terms <= 1 then (cost, terms)
    else begin
      let pendant =
        Iset.filter
          (fun v ->
            match up_neighbors g v with
            | [ _ ] -> true
            | [] -> raise Unreachable
            | _ -> false)
          terms
      in
      (* Keep a pendant whose sole neighbor is itself a pendant terminal
         (an isolated edge): collapsing both would orbit forever. *)
      let collapsible =
        Iset.filter
          (fun v ->
            match up_neighbors g v with
            | [ u ] -> not (Iset.mem u pendant)
            | _ -> false)
          pendant
      in
      if Iset.is_empty collapsible then (cost, terms)
      else begin
        let cost = ref cost and next = ref terms in
        Iset.iter
          (fun v ->
            match up_neighbors g v with
            | [ u ] ->
                next := Iset.add u (Iset.remove v !next);
                incr cost
            | _ -> assert false)
          collapsible;
        go !cost !next
      end
    end
  in
  match go 0 terminals with
  | result -> Some result
  | exception Unreachable -> None

let oracle g ~source ~dests =
  let terminals = Iset.of_list (source :: dests) in
  match collapse_pendants g terminals with
  | None -> None
  | Some (base, terms) ->
      if Iset.cardinal terms > max_terminals then None
      else if Iset.cardinal terms <= 1 then Some base
      else
        Option.map
          (fun c -> base + c)
          (steiner_cost g ~terminals:(Iset.elements terms))
