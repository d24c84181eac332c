
type t = { order : int array; hops : (int * int) list }

let schedule fabric ~source ~members =
  ignore fabric;
  let members = List.sort_uniq compare members in
  if List.length members < 2 then
    invalid_arg "Ring.schedule: need at least two members";
  if not (List.mem source members) then
    invalid_arg "Ring.schedule: source must be a member";
  (* Ascending node ids group GPUs by server, servers by rack, racks by
     pod — the locality order the fabric builders lay out. *)
  let arr = Array.of_list members in
  let n = Array.length arr in
  let src_pos = ref 0 in
  Array.iteri (fun i v -> if v = source then src_pos := i) arr;
  let order = Array.init n (fun i -> arr.((i + !src_pos) mod n)) in
  let hops = List.init (n - 1) (fun i -> (order.(i), order.(i + 1))) in
  { order; hops }

