open Peel_topology
open Peel_prefix
module Plan = Peel.Plan
module Bits = Peel_util.Bits

type switch = Core | Agg of int

let switch_to_string = function
  | Core -> "core"
  | Agg pod -> Printf.sprintf "agg[pod %d]" pod

type entry = {
  prefix : Cover.prefix;
  ports : int list;
  owners : int list;
  sources : Cover.prefix list;
}

type table = { switch : switch; id_bits : int; entries : entry list }

type t = {
  capacity : int option;
  aggregated : bool;
  merges : int;
  m_tor : int;
  m_pod : int;
  tables : table list;
  batch : (int * Plan.t) list;
}

(* ------------------------------------------------------------------ *)
(* Longest-prefix match                                                *)
(* ------------------------------------------------------------------ *)

(* Entries are kept in LPM priority order (longer len first), so the
   first ancestor hit is the longest. *)
let lpm (tb : table) header =
  List.find_opt (fun e -> Cover.is_ancestor e.prefix header) tb.entries

let find_table t switch =
  List.find_opt (fun tb -> tb.switch = switch) t.tables

(* ------------------------------------------------------------------ *)
(* Compilation                                                         *)
(* ------------------------------------------------------------------ *)

(* A working entry during merging: how many (packet, pod) header uses
   select it (the greedy's waste weight) and which original prefixes
   it absorbed. *)
type work = { mutable uses : int; mutable sources : Cover.prefix list }

(* One aggregation move at a working table.  [saved] is the entry-count
   reduction; [cost] the identifier-space over-delivery it introduces
   (block growth x header uses) — the greedy picks the cheapest cost
   per entry saved. *)
type move = {
  saved : int;
  cost : int;
  at : Cover.prefix; (* the resulting (parent / ancestor) entry *)
  drop : Cover.prefix list;
}

let block ~m p = Bits.pow2 (m - p.Cover.len)

(* Nearest strict ancestor of [p] present in [tbl]. *)
let nearest_ancestor tbl p =
  let rec go q =
    match Cover.parent q with
    | None -> None
    | Some a -> if Hashtbl.mem tbl a then Some a else go a
  in
  go p

let candidate_moves ~m tbl =
  let entries =
    Hashtbl.fold (fun p (w : work) l -> (p, w) :: l) tbl []
    |> List.sort (fun (a, _) (b, _) ->
           compare (a.Cover.len, a.Cover.value) (b.Cover.len, b.Cover.value))
  in
  List.concat_map
    (fun ((p : Cover.prefix), (w : work)) ->
      let fold_move =
        match nearest_ancestor tbl p with
        | None -> []
        | Some a ->
            [
              {
                saved = 1;
                cost = (block ~m a - block ~m p) * w.uses;
                at = a;
                drop = [ p ];
              };
            ]
      in
      let pair_move =
        match Cover.sibling p with
        | None -> []
        | Some s when s.Cover.value > p.Cover.value -> (
            (* Consider each sibling pair once, from the left child. *)
            match Hashtbl.find_opt tbl s with
            | None -> []
            | Some (sw : work) ->
                let parent = Option.get (Cover.parent p) in
                let saved = if Hashtbl.mem tbl parent then 2 else 1 in
                let cost =
                  ((block ~m parent - block ~m p) * w.uses)
                  + ((block ~m parent - block ~m s) * sw.uses)
                in
                [ { saved; cost; at = parent; drop = [ p; s ] } ])
        | Some _ -> []
      in
      fold_move @ pair_move)
    entries

(* Deterministic total order: min cost per entry saved first (compared
   exactly via cross-multiplication), then the bigger reduction, then
   the deeper and lower-valued target. *)
let better a b =
  let c = compare (a.cost * b.saved) (b.cost * a.saved) in
  if c <> 0 then c < 0
  else
    let c = compare b.saved a.saved in
    if c <> 0 then c < 0
    else
      compare
        (- a.at.Cover.len, a.at.Cover.value)
        (- b.at.Cover.len, b.at.Cover.value)
      < 0

let apply_move tbl mv =
  let moved_uses = ref 0 and moved_sources = ref [] in
  List.iter
    (fun p ->
      match Hashtbl.find_opt tbl p with
      | None -> assert false
      | Some (w : work) ->
          moved_uses := !moved_uses + w.uses;
          moved_sources := w.sources @ !moved_sources;
          Hashtbl.remove tbl p)
    mv.drop;
  match Hashtbl.find_opt tbl mv.at with
  | Some (w : work) ->
      w.uses <- w.uses + !moved_uses;
      w.sources <- !moved_sources @ w.sources
  | None -> Hashtbl.add tbl mv.at { uses = !moved_uses; sources = !moved_sources }

(* Merge [tbl] down to at most [target] entries (0 = as small as sound
   merging can go).  Returns the number of moves applied. *)
let merge_down ~m ~target tbl =
  let merges = ref 0 in
  let continue_ = ref true in
  while !continue_ && Hashtbl.length tbl > target do
    match candidate_moves ~m tbl with
    | [] -> continue_ := false
    | mv :: rest ->
        let best = List.fold_left (fun b c -> if better c b then c else b) mv rest in
        apply_move tbl best;
        incr merges
  done;
  !merges

let check_unique_gids batch =
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (gid, _) ->
      if Hashtbl.mem seen gid then
        invalid_arg (Printf.sprintf "Compile.compile: duplicate group id %d" gid);
      Hashtbl.replace seen gid ())
    batch

(* Validate every plan prefix against the fabric's id spaces, and
   every pod's sign, before touching any table — a foreign plan must
   not poison the batch. *)
let validate_plan ~m_tor ~m_pod gid (plan : Plan.t) =
  List.iter
    (fun (p : Plan.packet) ->
      (try Cover.validate ~m:m_tor p.Plan.tor_prefix
       with Invalid_argument msg ->
         invalid_arg
           (Printf.sprintf "Compile.compile: group %d: ToR prefix: %s" gid msg));
      (match p.Plan.pod_prefix with
      | None -> ()
      | Some pp -> (
          try Cover.validate ~m:m_pod pp
          with Invalid_argument msg ->
            invalid_arg
              (Printf.sprintf "Compile.compile: group %d: pod prefix: %s" gid msg)));
      List.iter
        (fun pod ->
          if pod < 0 then
            invalid_arg
              (Printf.sprintf "Compile.compile: group %d: negative pod %d" gid pod))
        p.Plan.pods)
    plan.Plan.packets

let validate_batch ~m_tor ~m_pod batch =
  check_unique_gids batch;
  List.iter (fun (gid, plan) -> validate_plan ~m_tor ~m_pod gid plan) batch

let compile ?capacity ?(aggregate = false) fabric batch =
  (match capacity with
  | Some c when c < 1 -> invalid_arg "Compile.compile: capacity must be >= 1"
  | _ -> ());
  let m_tor = Plan.tor_id_bits fabric in
  let m_pod = Plan.pod_id_bits fabric in
  validate_batch ~m_tor ~m_pod batch;
  (* Collect header uses per logical switch; dedup falls out of the
     prefix-keyed working tables. *)
  let working : (switch, (Cover.prefix, work) Hashtbl.t) Hashtbl.t =
    Hashtbl.create 16
  in
  let use sw prefix =
    let tbl =
      match Hashtbl.find_opt working sw with
      | Some tbl -> tbl
      | None ->
          let tbl = Hashtbl.create 8 in
          Hashtbl.add working sw tbl;
          tbl
    in
    match Hashtbl.find_opt tbl prefix with
    | Some (w : work) -> w.uses <- w.uses + 1
    | None -> Hashtbl.add tbl prefix { uses = 1; sources = [ prefix ] }
  in
  List.iter
    (fun (_gid, (plan : Plan.t)) ->
      List.iter
        (fun (p : Plan.packet) ->
          (match p.Plan.pod_prefix with None -> () | Some pp -> use Core pp);
          List.iter (fun pod -> use (Agg pod) p.Plan.tor_prefix) p.Plan.pods)
        plan.Plan.packets)
    batch;
  (* Aggregate over-budget tables. *)
  let merges = ref 0 in
  if aggregate then begin
    let target = Option.value capacity ~default:0 in
    Hashtbl.iter
      (fun sw tbl ->
        let m = match sw with Core -> m_pod | Agg _ -> m_tor in
        if Hashtbl.length tbl > target then
          merges := !merges + merge_down ~m ~target tbl)
      working
  end;
  (* Freeze tables in LPM priority order, Core first then pods. *)
  let freeze sw =
    match Hashtbl.find_opt working sw with
    | None -> []
    | Some tbl ->
        let m = match sw with Core -> m_pod | Agg _ -> m_tor in
        let entries =
          Hashtbl.fold
            (fun p (w : work) l ->
              {
                prefix = p;
                ports = Cover.expand ~m p;
                owners = [];
                sources =
                  List.sort
                    (fun a b ->
                      compare
                        (a.Cover.value * Bits.pow2 (m - a.Cover.len))
                        (b.Cover.value * Bits.pow2 (m - b.Cover.len)))
                    w.sources;
              }
              :: l)
            tbl []
          |> List.sort (fun a b ->
                 compare
                   (- a.prefix.Cover.len, a.prefix.Cover.value)
                   (- b.prefix.Cover.len, b.prefix.Cover.value))
        in
        [ { switch = sw; id_bits = m; entries } ]
  in
  let pods_used =
    Hashtbl.fold
      (fun sw _ l -> match sw with Agg pod -> pod :: l | Core -> l)
      working []
    |> List.sort compare
  in
  let tables = freeze Core @ List.concat_map (fun pod -> freeze (Agg pod)) pods_used in
  (* Replay every header to stamp owners: the groups whose packets
     longest-prefix-match each entry. *)
  let owner_map : (switch * Cover.prefix, int list) Hashtbl.t = Hashtbl.create 64 in
  let own sw tb gid header =
    match lpm tb header with
    | None -> ()
    | Some e ->
        let key = (sw, e.prefix) in
        let prev = Option.value (Hashtbl.find_opt owner_map key) ~default:[] in
        if not (List.mem gid prev) then Hashtbl.replace owner_map key (gid :: prev)
  in
  let table_of sw = List.find_opt (fun tb -> tb.switch = sw) tables in
  List.iter
    (fun (gid, (plan : Plan.t)) ->
      List.iter
        (fun (p : Plan.packet) ->
          (match (p.Plan.pod_prefix, table_of Core) with
          | Some pp, Some tb -> own Core tb gid pp
          | _ -> ());
          List.iter
            (fun pod ->
              match table_of (Agg pod) with
              | Some tb -> own (Agg pod) tb gid p.Plan.tor_prefix
              | None -> ())
            p.Plan.pods)
        plan.Plan.packets)
    batch;
  let tables =
    List.map
      (fun tb ->
        {
          tb with
          entries =
            List.map
              (fun e ->
                {
                  e with
                  owners =
                    List.sort compare
                      (Option.value
                         (Hashtbl.find_opt owner_map (tb.switch, e.prefix))
                         ~default:[]);
                })
              tb.entries;
        })
      tables
  in
  { capacity; aggregated = aggregate; merges = !merges; m_tor; m_pod; tables; batch }

(* ------------------------------------------------------------------ *)
(* Compiled data plane                                                 *)
(* ------------------------------------------------------------------ *)

let deliver_group fabric t ~group =
  let plan =
    match List.assoc_opt group t.batch with
    | Some p -> p
    | None ->
        invalid_arg
          (Printf.sprintf "Compile.deliver_group: group %d not in the compiled batch"
             group)
  in
  let core = find_table t Core in
  let npods = Fabric.pods fabric in
  List.concat_map
    (fun (p : Plan.packet) ->
      let pods =
        match p.Plan.pod_prefix with
        | None -> [ 0 ]
        | Some pp -> (
            (* Wire round-trip, then LPM at the core tier. *)
            let wire = Header.encode ~m:t.m_pod pp in
            let decoded = Header.decode ~m:t.m_pod wire.Header.raw in
            match core with
            | None -> []
            | Some tb -> (
                match lpm tb decoded with
                | None -> []
                | Some e -> List.filter (fun pod -> pod < npods) e.ports))
      in
      let wire = Header.encode ~m:t.m_tor p.Plan.tor_prefix in
      let decoded = Header.decode ~m:t.m_tor wire.Header.raw in
      List.concat_map
        (fun pod ->
          match find_table t (Agg pod) with
          | None -> [] (* no rule at this pod's tier: dropped *)
          | Some tb -> (
              match lpm tb decoded with
              | None -> []
              | Some e ->
                  let racks = Fabric.tors_of_pod fabric pod in
                  List.filter_map
                    (fun idx ->
                      if idx < Array.length racks then Some racks.(idx) else None)
                    e.ports))
        pods)
    plan.Plan.packets
  |> List.sort_uniq compare

let group_waste fabric t ~group =
  let plan = List.assoc group t.batch in
  let member = Hashtbl.create 64 in
  List.iter
    (fun d -> Hashtbl.replace member (Fabric.attach_tor fabric d) ())
    plan.Plan.dests;
  List.filter (fun r -> not (Hashtbl.mem member r)) (deliver_group fabric t ~group)

(* ------------------------------------------------------------------ *)
(* Footprint accounting                                                *)
(* ------------------------------------------------------------------ *)

let entry_bytes ~m =
  Bits.ceil_div (m + Bits.ceil_log2 (m + 1)) 8 + Bits.ceil_div (Bits.pow2 m) 8

let table_bytes tb = List.length tb.entries * entry_bytes ~m:tb.id_bits

let footprint t =
  List.map (fun tb -> (tb.switch, List.length tb.entries, table_bytes tb)) t.tables

let max_entries t =
  List.fold_left (fun acc tb -> max acc (List.length tb.entries)) 0 t.tables

let total_entries t =
  List.fold_left (fun acc tb -> acc + List.length tb.entries) 0 t.tables

(* A use is [(switch lsl b) lor prefix], with [b = max m_tor m_pod + 1]:
   the switch is 0 for the core tier and pod + 1 for a pod's
   aggregation tier, and a validated prefix packs as
   [(1 lsl len) lor value] < 2^(m + 1) <= 2^b, its top bit marking its
   length.  So two uses share a code exactly when they share a switch
   and a prefix. *)
type footprint = int array (* distinct uses, ascending *)

(* Sorts [a] in place and packs its distinct values at the front;
   returns how many there are. *)
let distinct a =
  Array.sort Int.compare a;
  let d = ref 0 in
  for i = 0 to Array.length a - 1 do
    if !d = 0 || a.(!d - 1) <> a.(i) then begin
      a.(!d) <- a.(i);
      incr d
    end
  done;
  !d

let plan_footprint fabric ~group (plan : Plan.t) =
  let m_tor = Plan.tor_id_bits fabric in
  let m_pod = Plan.pod_id_bits fabric in
  validate_plan ~m_tor ~m_pod group plan;
  let b = max m_tor m_pod + 1 in
  (* [code] is 0 for the core tier, so [pod] names only an agg tier. *)
  let pack ~pod code (p : Cover.prefix) =
    if b > 62 || code < 0 || code >= 1 lsl (62 - b) then
      invalid_arg
        (Printf.sprintf
           "Compile.plan_footprint: group %d: the use at %s needs more than 62 bits"
           group
           (switch_to_string (if code = 0 then Core else Agg pod)));
    (code lsl b) lor (1 lsl p.Cover.len) lor p.Cover.value
  in
  let n =
    List.fold_left
      (fun n (p : Plan.packet) ->
        let core = match p.Plan.pod_prefix with None -> 0 | Some _ -> 1 in
        n + core + List.length p.Plan.pods)
      0 plan.Plan.packets
  in
  let uses = Array.make n 0 and k = ref 0 in
  let push x =
    uses.(!k) <- x;
    incr k
  in
  List.iter
    (fun (p : Plan.packet) ->
      (match p.Plan.pod_prefix with None -> () | Some pp -> push (pack ~pod:0 0 pp));
      List.iter
        (fun pod -> push (pack ~pod (pod + 1) p.Plan.tor_prefix))
        p.Plan.pods)
    plan.Plan.packets;
  let d = distinct uses in
  if d = n then uses else Array.sub uses 0 d

let count_footprints fps = distinct (Array.concat fps)

(* [total_entries (compile fabric batch)] without freezing tables,
   stamping owners or replaying headers: the unaggregated entry count
   is the number of distinct (switch, prefix) uses.  Validation
   (duplicate gids, foreign prefixes, negative pods) raises exactly as
   [compile] would. *)
let count_entries fabric batch =
  check_unique_gids batch;
  count_footprints
    (List.map (fun (gid, plan) -> plan_footprint fabric ~group:gid plan) batch)

let fits t =
  match t.capacity with
  | None -> true
  | Some c -> List.for_all (fun tb -> List.length tb.entries <= c) t.tables
