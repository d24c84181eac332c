(* Fresh-process runs, noise calibration and comparison of two
   calibrations. *)

module Json = Peel_util.Json

(* Run one workload in a child process of this executable and return
   its output lines and the parsed result line. *)
let child args =
  let ic = Unix.open_process_args_in Sys.executable_name (Array.of_list (Sys.executable_name :: args)) in
  let lines = In_channel.input_all ic |> String.split_on_char '\n' |> List.filter (( <> ) "") in
  ignore (Unix.close_process_in ic);
  let result =
    match List.rev lines with last :: _ -> Result.to_option (Json.parse last) | [] -> None
  in
  (lines, result)

let run_args ~workload ~size ~seed ~seconds =
  [ "run"; workload; "--size"; Workload.size_to_string size; "--seed"; string_of_int seed;
    "--seconds"; string_of_int seconds ]

let metric_value json name =
  Option.bind (Json.member "metrics" json) (fun m ->
      Option.bind (Json.member name m) (fun v -> Option.bind (Json.member "value" v) Json.get_num))

let correct json = Option.bind (Json.member "correct" json) Json.get_bool = Some true

(* Smallest bound (share of the median) that a spread this wide fits
   three times into, in whole percent, capped at 25 %. *)
let suggested_bound spread = Float.min 0.25 (Float.max 0.02 (ceil (spread *. 300.0) /. 100.0))

let e2e_names = List.map (fun m -> m.Workload.m_name) Workload.end_to_end

let print_stats ~workload name values =
  let q1, q2, q3 = Util.quartiles values in
  let spread = Util.spread values in
  Printf.printf "%-15s %-17s median %-12.6g q1 %-12.6g q3 %-12.6g spread %5.3f suggest %.2f\n%!"
    workload name q2 q1 q3 spread (suggested_bound spread)

(* [runs] fresh processes per workload with seeds [seed], [seed+1], ...,
   interleaved across workloads so drift hits every workload alike. *)
let calibrate ~workloads ~size ~seed ~seconds ~runs ~out =
  let values = Hashtbl.create 16 and oks = Hashtbl.create 16 in
  for i = 0 to runs - 1 do
    List.iter
      (fun w ->
        let _, r = child (run_args ~workload:w ~size ~seed:(seed + i) ~seconds) in
        let ok = match r with Some j -> correct j | None -> false in
        Hashtbl.replace oks w (ok :: Option.value (Hashtbl.find_opt oks w) ~default:[]);
        List.iter
          (fun n ->
            let v = Option.value (Option.bind r (fun j -> metric_value j n)) ~default:nan in
            let k = (w, n) in
            Hashtbl.replace values k (Option.value (Hashtbl.find_opt values k) ~default:[] @ [ v ]))
          e2e_names;
        Printf.printf "# run %d/%d %s seed %d %s\n%!" (i + 1) runs w (seed + i)
          (if ok then "ok" else "FAILED"))
      workloads
  done;
  let series w n = Option.value (Hashtbl.find_opt values (w, n)) ~default:[] in
  List.iter (fun w -> List.iter (fun n -> print_stats ~workload:w n (series w n)) e2e_names) workloads;
  let doc =
    Json.Obj
      [
        ("host", Measure.host_json ());
        ("size", Json.str (Workload.size_to_string size));
        ("seconds", Json.int seconds);
        ("seeds", Json.Arr (List.init runs (fun i -> Json.int (seed + i))));
        ( "workloads",
          Json.Obj
            (List.map
               (fun w ->
                 ( w,
                   Json.Obj
                     (("correct", Json.Arr (List.rev_map (fun b -> Json.Bool b) (Hashtbl.find oks w)))
                     :: List.map (fun n -> (n, Json.Arr (List.map Json.num (series w n)))) e2e_names) ))
               workloads) );
      ]
  in
  Util.write_file out (Json.to_string doc);
  Printf.printf "# wrote %s\n" out;
  Hashtbl.fold (fun _ l acc -> acc && List.for_all Fun.id l) oks true

let load path =
  match Json.parse (Util.read_file path) with
  | Ok j -> j
  | Error e -> failwith (Printf.sprintf "%s: %s" path e)

let rec zip a b = match (a, b) with x :: xs, y :: ys -> (x, y) :: zip xs ys | _ -> []

let nums j =Option.value (Json.get_arr j) ~default:[] |> List.filter_map Json.get_num

(* One row per workload x end-to-end metric.  A is the parent, B the
   change; runs pair up by position (the same seed).  B is better when
   it wins at least 9 of 10 pairs and the medians differ by more than
   A's quartile distance; worse when its median is worse by more than
   the bound; unresolved when either side's spread exceeds the bound;
   unchanged otherwise. *)
let compare ~bench a_path b_path =
  let a = load a_path and b = load b_path and spec = load bench in
  let bounds =
    Option.value (Option.bind (Json.member "end_to_end" spec) Json.get_arr) ~default:[]
    |> List.filter_map (fun m ->
           match
             ( Option.bind (Json.member "name" m) Json.get_str,
               Option.bind (Json.member "bound" m) Json.get_num,
               Option.bind (Json.member "better" m) Json.get_str )
           with
           | Some n, Some bound, Some better -> Some (n, (bound, better = "higher"))
           | _ -> None)
  in
  let worse_count = ref 0 in
  let workloads j =
    match Json.member "workloads" j with Some (Json.Obj kv) -> kv | _ -> []
  in
  Printf.printf "%-15s %-17s %-12s %-25s %-12s %-25s %-5s %s\n" "workload" "metric" "A median"
    "A q1..q3" "B median" "B q1..q3" "wins" "verdict";
  List.iter
    (fun (w, aw) ->
      match List.assoc_opt w (workloads b) with
      | None -> ()
      | Some bw ->
          List.iter
            (fun (n, (bound, higher)) ->
              let av = Option.fold ~none:[] ~some:nums (Json.member n aw)
              and bv = Option.fold ~none:[] ~some:nums (Json.member n bw) in
              if av <> [] && bv <> [] then begin
                let a1, am, a3 = Util.quartiles av and b1, bm, b3 = Util.quartiles bv in
                let better x y = if higher then y > x else y < x in
                let pairs = zip av bv in
                let wins = List.length (List.filter (fun (x, y) -> better x y) pairs) in
                let worse_by = (if higher then am -. bm else bm -. am) /. Float.abs am in
                let verdict =
                  if 10 * wins >= 9 * List.length pairs && Float.abs (bm -. am) > a3 -. a1 then "better"
                  else if worse_by > bound then begin
                    incr worse_count;
                    "worse"
                  end
                  else if Util.spread av > bound || Util.spread bv > bound then "unresolved"
                  else "unchanged"
                in
                Printf.printf "%-15s %-17s %-12.6g %-25s %-12.6g %-25s %2d/%-2d %s\n" w n am
                  (Printf.sprintf "%.6g..%.6g" a1 a3) bm
                  (Printf.sprintf "%.6g..%.6g" b1 b3) wins (List.length pairs) verdict
              end)
            bounds)
    (workloads a);
  !worse_count = 0
