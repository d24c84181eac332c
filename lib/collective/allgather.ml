open Peel_sim
open Peel_workload

type algo = Ring_exchange | Peel_multicast

let algo_to_string = function
  | Ring_exchange -> "ring"
  | Peel_multicast -> "peel"

let launch engine links fabric paths _cfg algo ~(spec : Spec.collective)
    ~on_complete =
  let members = Array.of_list (List.sort_uniq compare spec.members) in
  let n = Array.length members in
  if n < 2 then invalid_arg "Allgather.launch: need at least two members";
  let shard = spec.bytes /. float_of_int n in
  (* Everyone must receive the n-1 shards they do not own. *)
  let remaining = ref (n * (n - 1)) in
  let last = ref spec.arrival in
  let record time =
    remaining := !remaining - 1;
    if time > !last then last := time;
    if !remaining = 0 then on_complete (!last -. spec.arrival)
  in
  let send (r : Par.route) ~start ~on_delivered =
    Transfer.dag engine links r.Par.dag ~trees:r.Par.trees ~bytes:shard ~start
      ~on_delivered ()
  in
  match algo with
  | Ring_exchange ->
      let hops =
        Array.init n (fun i ->
            let next = members.((i + 1) mod n) in
            Par.of_path ~deliver:next (Paths.links paths members.(i) next))
      in
      (* Shard owned by position o visits positions o+1 .. o+n-1. *)
      let rec pass hops_left pos t =
        if hops_left > 0 then
          send hops.(pos) ~start:t ~on_delivered:(fun ~node:_ ~time ->
              record time;
              pass (hops_left - 1) ((pos + 1) mod n) time)
      in
      for o = 0 to n - 1 do
        pass (n - 1) o spec.arrival
      done
  | Peel_multicast ->
      (* Each member multicasts its shard over its own prefix plan. *)
      Array.iter
        (fun owner ->
          let dests = List.filter (fun m -> m <> owner) (Array.to_list members) in
          match Peel.Plan.packet_trees fabric ~source:owner ~dests with
          | [] -> failwith "Allgather: empty PEEL plan"
          | trees ->
              send (Par.of_trees ~dests trees) ~start:spec.arrival
                ~on_delivered:(fun ~node:_ ~time -> record time))
        members

let run fabric algo collectives =
  Runner.run_custom fabric
    ~launch:(fun engine links paths cfg ~spec ~on_complete ->
      launch engine links fabric paths cfg algo ~spec ~on_complete)
    collectives
