type t = { jobs : int }

let hardware_jobs () = max 1 (Domain.recommended_domain_count () - 1)

let env_jobs () =
  match Sys.getenv_opt "PEEL_JOBS" with
  | None -> None
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> Some n
      | _ -> None)

let forced_default = ref None

let set_default_jobs n =
  if n < 1 then invalid_arg "Pool.set_default_jobs: jobs must be >= 1";
  forced_default := Some n

let default_jobs () =
  match !forced_default with
  | Some n -> n
  | None -> ( match env_jobs () with Some n -> n | None -> hardware_jobs ())

let create ?jobs () =
  let jobs = match jobs with Some n -> n | None -> default_jobs () in
  if jobs < 1 then invalid_arg "Pool.create: jobs must be >= 1";
  { jobs }

(* Set while a domain is executing worker chunks, so nested [par_map]
   calls degrade to [List.map] instead of spawning domains from
   domains. *)
let inside_worker = Domain.DLS.new_key (fun () -> false)

let par_map ?pool ?chunk f l =
  let jobs = match pool with Some p -> p.jobs | None -> default_jobs () in
  (match chunk with
  | Some c when c < 1 -> invalid_arg "Pool.par_map: chunk must be >= 1"
  | _ -> ());
  match l with
  | [] -> []
  | [ x ] -> [ f x ]
  | l when jobs = 1 || Domain.DLS.get inside_worker -> List.map f l
  | l ->
      let input = Array.of_list l in
      let n = Array.length input in
      let chunk =
        match chunk with Some c -> c | None -> max 1 (n / (8 * jobs))
      in
      (* One slot per input index: workers never write the same slot,
         so the result order is the input order by construction. *)
      let results = Array.make n None in
      let failures = Array.make n None in
      let next = Atomic.make 0 in
      let work () =
        let rec loop () =
          let start = Atomic.fetch_and_add next chunk in
          if start < n then begin
            let stop = min n (start + chunk) in
            for i = start to stop - 1 do
              match f input.(i) with
              | y -> results.(i) <- Some y
              | exception e -> failures.(i) <- Some e
            done;
            loop ()
          end
        in
        Domain.DLS.set inside_worker true;
        Fun.protect ~finally:(fun () -> Domain.DLS.set inside_worker false) loop
      in
      let nchunks = (n + chunk - 1) / chunk in
      let spawned =
        List.init (min (jobs - 1) (nchunks - 1)) (fun _ -> Domain.spawn work)
      in
      (* The calling domain is a worker too; [Domain.join] then
         publishes every spawned domain's slot writes to this one. *)
      work ();
      List.iter Domain.join spawned;
      (* Deterministic error propagation: lowest input index wins. *)
      Array.iter (function Some e -> raise e | None -> ()) failures;
      Array.to_list
        (Array.map
           (function
             | Some y -> y
             | None -> assert false (* every index ran or raised *))
           results)
