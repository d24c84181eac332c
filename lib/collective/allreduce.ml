open Peel_sim
open Peel_workload

type algo = Ring_rs_ag | Reduce_then_peel

let algo_to_string = function
  | Ring_rs_ag -> "ring"
  | Reduce_then_peel -> "reduce+peel"

let launch engine links fabric paths (cfg : Broadcast.config) algo
    ~(spec : Spec.collective) ~on_complete =
  let members = Array.of_list (List.sort_uniq compare spec.members) in
  let n = Array.length members in
  if n < 2 then invalid_arg "Allreduce.launch: need at least two members";
  match algo with
  | Ring_rs_ag ->
      (* Shard s is reduced along positions s+1..s (n-1 hops), then
         gathered along s..s+n-2 (n-1 more hops).  Each shard's chain is
         independent; the collective is done when every chain ends. *)
      let shard = spec.bytes /. float_of_int n in
      let hops =
        Array.init n (fun i ->
            let next = members.((i + 1) mod n) in
            Par.of_path ~deliver:next (Paths.links paths members.(i) next))
      in
      let chains = ref n in
      let last = ref spec.arrival in
      let rec pass hops_left pos t =
        if hops_left = 0 then begin
          if t > !last then last := t;
          decr chains;
          if !chains = 0 then on_complete (!last -. spec.arrival)
        end
        else
          let r = hops.(pos) in
          Transfer.dag engine links r.Par.dag ~trees:r.Par.trees ~bytes:shard
            ~start:t
            ~on_delivered:(fun ~node:_ ~time ->
              pass (hops_left - 1) ((pos + 1) mod n) time)
            ()
      in
      Engine.schedule engine spec.arrival (fun () ->
          for s = 0 to n - 1 do
            pass (2 * (n - 1)) ((s + 1) mod n) spec.arrival
          done)
  | Reduce_then_peel ->
      let chunks = cfg.Broadcast.chunks in
      let chunk_bytes = spec.bytes /. float_of_int chunks in
      let dests = List.filter (fun m -> m <> spec.source) (Array.to_list members) in
      let r =
        match Peel.Plan.packet_trees fabric ~source:spec.source ~dests with
        | [] -> failwith "Allreduce: empty PEEL plan"
        | trees -> Par.of_trees ~dests trees
      in
      let remaining = ref (chunks * List.length dests) in
      let reduce_done = ref false in
      let last = ref spec.arrival in
      let maybe_finish () =
        if !remaining = 0 && !reduce_done then on_complete (!last -. spec.arrival)
      in
      let record time =
        remaining := !remaining - 1;
        if time > !last then last := time;
        maybe_finish ()
      in
      (* Each chunk's broadcast launches the moment its reduction
         reaches the root: the two phases pipeline. *)
      Reduce.launch_with_chunk_hook engine links fabric paths cfg
        Reduce.Btree_reduce ~spec
        ~on_chunk:(fun _c t ->
          Transfer.dag engine links r.Par.dag ~trees:r.Par.trees
            ~bytes:chunk_bytes ~start:t
            ~on_delivered:(fun ~node:_ ~time -> record time)
            ())
        ~on_complete:(fun _ ->
          reduce_done := true;
          let now = Engine.now engine in
          if now > !last then last := now;
          maybe_finish ())

let run fabric algo collectives =
  Runner.run_custom fabric
    ~launch:(fun engine links paths cfg ~spec ~on_complete ->
      launch engine links fabric paths cfg algo ~spec ~on_complete)
    collectives
