open Peel_sim
open Peel_workload

type algo = Ring_pass | Btree_reduce

let algo_to_string = function
  | Ring_pass -> "ring"
  | Btree_reduce -> "tree"

let launch_with_chunk_hook engine links _fabric paths (cfg : Broadcast.config)
    algo ~(spec : Spec.collective) ~on_chunk ~on_complete =
  let members = Array.of_list (List.sort_uniq compare spec.members) in
  let n = Array.length members in
  if n < 2 then invalid_arg "Reduce.launch: need at least two members";
  if not (Array.exists (fun m -> m = spec.source) members) then
    invalid_arg "Reduce.launch: root must be a member";
  let chunks = cfg.Broadcast.chunks in
  let chunk_bytes = spec.bytes /. float_of_int chunks in
  let done_chunks = ref 0 in
  let last = ref spec.arrival in
  let finish_chunk c t =
    on_chunk c t;
    incr done_chunks;
    if t > !last then last := t;
    if !done_chunks = chunks then on_complete (!last -. spec.arrival)
  in
  let send (r : Par.route) ~start ~on_delivered =
    Transfer.dag engine links r.Par.dag ~trees:r.Par.trees ~bytes:chunk_bytes
      ~start ~on_delivered ()
  in
  match algo with
  | Ring_pass ->
      (* Accumulating chain ending at the root. *)
      let root_pos = ref 0 in
      Array.iteri (fun i m -> if m = spec.source then root_pos := i) members;
      let order =
        Array.init n (fun i -> members.((i + !root_pos + 1) mod n))
      in
      (* order.(n-1) = root. *)
      let hops =
        Array.init (n - 1) (fun i ->
            Par.of_path ~deliver:order.(i + 1)
              (Paths.links paths order.(i) order.(i + 1)))
      in
      let rec forward pos c t =
        if pos = n - 1 then finish_chunk c t
        else
          send hops.(pos) ~start:t ~on_delivered:(fun ~node:_ ~time ->
              forward (pos + 1) c time)
      in
      Engine.schedule engine spec.arrival (fun () ->
          for c = 0 to chunks - 1 do
            forward 0 c spec.arrival
          done)
  | Btree_reduce ->
      let bt =
        Peel_baselines.Binary_tree.schedule _fabric ~source:spec.source
          ~members:spec.members
      in
      let order = bt.Peel_baselines.Binary_tree.order in
      let children p =
        List.filter (fun c -> c < n) [ (2 * p) + 1; (2 * p) + 2 ]
      in
      (* pending.(p).(c) = chunks still expected from below before node p
         can forward chunk c upward. *)
      let pending =
        Array.init n (fun p -> Array.make chunks (List.length (children p)))
      in
      let rec send_up p c t =
        if p = 0 then finish_chunk c t
        else begin
          let parent = (p - 1) / 2 in
          send
            (Par.of_path ~deliver:order.(parent)
               (Paths.links paths order.(p) order.(parent)))
            ~start:t
            ~on_delivered:(fun ~node:_ ~time -> arrive parent c time)
        end
      and arrive p c t =
        pending.(p).(c) <- pending.(p).(c) - 1;
        if pending.(p).(c) = 0 then send_up p c t
      in
      Engine.schedule engine spec.arrival (fun () ->
          for p = 0 to n - 1 do
            if children p = [] then
              for c = 0 to chunks - 1 do
                send_up p c spec.arrival
              done
          done)

let launch engine links fabric paths cfg algo ~spec ~on_complete =
  launch_with_chunk_hook engine links fabric paths cfg algo ~spec
    ~on_chunk:(fun _ _ -> ())
    ~on_complete

let run fabric algo collectives =
  Runner.run_custom fabric
    ~launch:(fun engine links paths cfg ~spec ~on_complete ->
      launch engine links fabric paths cfg algo ~spec ~on_complete)
    collectives
