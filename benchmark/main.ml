(* The repository benchmark: four workloads over the service and
   simulator paths.  See README.md in this directory.

     main.exe --workload W --seed N --seconds S --trace 0|1   one run
     main.exe run W [--seed N] [--seconds S] [--size Z] [--trace 0|1] [--spans F]
     main.exe trace W [--seed N] [--size Z] [--spans F]     per-layer table
     main.exe all [--seed N] [--seconds S] [--size Z] [--out F]
     main.exe calibrate [--runs N] [--workload W] [--seed N] [--seconds S] [--out F]
     main.exe compare A.json B.json [--bench BENCHMARK.json]
     main.exe smoke BENCHMARK.json                          the runtest check

   A run prints [workload metric value unit] lines and ends with one
   JSON result line. *)

open Workload
module Json = Peel_util.Json

let workloads =
  [
    Serve.workload "serve-ramp"
      "E22 stream: create-heavy, working set of 10^5+ groups; loads Stream, the Group_table arena, \
       memo hits, a saturated TCAM and the GC, almost bypasses peeling"
      Serve.ramp
      [ (Smoke, "c1517729addfe166"); (Bench, "2093c895e7918ff4"); (Full, "a8201ed481315c1c") ];
    Serve.workload "serve-churn"
      "E20 tenant mix: delta splices, bound checks, Plan.build misses, per-batch compile, \
       eviction and Pool fan-out dominate; memo hits and arena residency idle"
      Serve.churn
      [ (Smoke, "45323aa96b4c0a5a"); (Bench, "ab54378210165eac"); (Full, "41af128c56484a8c") ];
    {
      name = "sim-scale";
      why =
        "E19 scale, fat-tree k=32: plan to CCT for peel, ring and btree; Par.flatten and its \
         Paths BFS dominate, the sharded event loop is a small share";
      pins = [ (Smoke, "99ed370fc152d99e"); (Bench, "956da231ed285cfb"); (Full, "046ef59515a219a4") ];
      setup = Sim.scale_setup;
    };
    {
      name = "sim-congestion";
      why =
        "fat-tree k=8 under DCQCN: millions of engine events, so Engine, Link_state and Dcqcn \
         dominate and Paths is a small cached cost";
      pins = [ (Smoke, "80bc36fd1814ac21"); (Bench, "f341a6a9970cd444"); (Full, "16a6ae558d8f9f16") ];
      setup = Sim.congestion_setup;
    };
  ]

let default_seconds = 10

exception Usage of string

let usage fmt = Printf.ksprintf (fun s -> raise (Usage s)) fmt

(* Flags as [--name value]; everything else is positional. *)
let parse args =
  let rec go flags pos = function
    | [] -> (flags, List.rev pos)
    | f :: v :: rest when String.length f > 2 && String.sub f 0 2 = "--" ->
        go ((String.sub f 2 (String.length f - 2), v) :: flags) pos rest
    | [ f ] when String.length f > 2 && String.sub f 0 2 = "--" -> usage "flag %s needs a value" f
    | p :: rest -> go flags (p :: pos) rest
  in
  go [] [] args

let flag flags name conv default =
  match List.assoc_opt name flags with
  | None -> default
  | Some v -> ( match conv v with Some x -> x | None -> usage "bad value %S for --%s" v name)

let workload_named name =
  match List.find_opt (fun w -> w.name = name) workloads with
  | Some w -> w
  | None -> usage "unknown workload %S" name

let size_flag flags = flag flags "size" size_of_string Bench
let seed_flag flags = flag flags "seed" int_of_string_opt 0
let seconds_flag flags = flag flags "seconds" int_of_string_opt default_seconds

let run_cmd w flags ~trace ~spans_file =
  let size = size_flag flags and seed = seed_flag flags and seconds = seconds_flag flags in
  print_endline (Measure.host_line ~size ~seed ~seconds);
  let r = Measure.run (workload_named w) ~size ~seed ~seconds ~trace ~spans_file in
  Measure.print_human r;
  Option.iter (Printf.printf "# spans %s\n") spans_file;
  print_endline (Json.to_string (Measure.to_json r));
  (* A run that printed its result line succeeded; the line says
     whether the outputs were correct. *)
  true

(* Every workload in its own fresh process. *)
let all_cmd flags =
  let size = size_flag flags and seed = seed_flag flags and seconds = seconds_flag flags in
  let out = flag flags "out" Option.some "_benchmark/results.json" in
  print_endline (Measure.host_line ~size ~seed ~seconds);
  let results =
    List.map
      (fun w ->
        let lines, r = Report.child (Report.run_args ~workload:w.name ~size ~seed ~seconds) in
        List.iter
          (fun l -> if String.length l > 0 && l.[0] <> '{' && l.[0] <> '#' then print_endline l)
          lines;
        (w.name, r))
      workloads
  in
  Util.write_file out
    (Json.to_string
       (Json.Obj
          [
            ("host", Measure.host_json ());
            ("size", Json.str (size_to_string size));
            ("seed", Json.int seed);
            ("seconds", Json.int seconds);
            ( "workloads",
              Json.Obj (List.map (fun (n, r) -> (n, Option.value r ~default:Json.Null)) results) );
          ]));
  Printf.printf "# wrote %s\n" out;
  List.for_all (fun (_, r) -> match r with Some j -> Report.correct j | None -> false) results

(* ---------------- smoke (runtest) ---------------- *)

let smoke bench_path =
  let problems = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  (* BENCHMARK.json names the same workloads and metrics as this
     dictionary. *)
  let spec = Report.load bench_path in
  let list key = Option.value (Option.bind (Json.member key spec) Json.get_arr) ~default:[] in
  let str key j = Option.value (Option.bind (Json.member key j) Json.get_str) ~default:"" in
  if List.map (str "name") (list "workloads") <> List.map (fun w -> w.name) workloads then
    fail "BENCHMARK.json workloads differ from the benchmark's";
  List.iter
    (fun (key, dict) ->
      let declared = List.map (fun j -> (str "name" j, str "unit" j, str "better" j)) (list key) in
      let ours = List.map (fun x -> (x.m_name, x.m_unit, better_to_string x.m_better)) dict in
      if declared <> ours then fail "BENCHMARK.json %s differs from the metric dictionary" key)
    [ ("end_to_end", end_to_end); ("per_layer", per_layer) ];
  List.iter
    (fun w ->
      let run ?(trace = false) seed =
        Measure.run w ~size:Smoke ~seed ~seconds:0 ~trace ~spans_file:None
      in
      let a = run 0 and b = run 0 and c = run 1 and t = run ~trace:true 0 in
      List.iter
        (fun (r, dict) ->
          if not r.Measure.correct then
            fail "%s: incorrect: %s" w.name (String.concat "; " r.Measure.findings);
          match Json.parse (Json.to_string (Measure.to_json r)) with
          | Error e -> fail "%s: result line does not parse: %s" w.name e
          | Ok j ->
              List.iter
                (fun x ->
                  let v = Option.bind (Json.member "metrics" j) (Json.member x.m_name) in
                  let value = Option.bind v (fun v -> Option.bind (Json.member "value" v) Json.get_num) in
                  let unit = Option.bind v (fun v -> Option.bind (Json.member "unit" v) Json.get_str) in
                  if value = None || unit <> Some x.m_unit then
                    fail "%s: metric %s missing or without its unit" w.name x.m_name)
                dict)
        [ (a, end_to_end); (b, end_to_end); (c, end_to_end); (t, per_layer) ];
      let link r = List.assoc "link_mb_per_send" r.Measure.metrics in
      if a.Measure.digest <> b.Measure.digest || link a <> link b then
        fail "%s: the same seed gave different outputs" w.name;
      if a.Measure.digest = c.Measure.digest then
        fail "%s: a different seed gave the same outputs" w.name;
      Printf.printf "smoke %s digest %s ok\n%!" w.name a.Measure.digest)
    workloads;
  List.iter (Printf.eprintf "smoke: %s\n") (List.rev !problems);
  !problems = []

let main args =
  let flags, pos = parse args in
  let trace_flag () =
    flag flags "trace" (function "0" -> Some false | "1" -> Some true | _ -> None) false
  in
  let spans () = List.assoc_opt "spans" flags in
  match pos with
  | [] when List.mem_assoc "workload" flags ->
      run_cmd (List.assoc "workload" flags) flags ~trace:(trace_flag ()) ~spans_file:(spans ())
  | [ "run"; w ] -> run_cmd w flags ~trace:(trace_flag ()) ~spans_file:(spans ())
  | [ "trace"; w ] ->
      let file = Option.value (spans ()) ~default:(Printf.sprintf "_benchmark/spans-%s.json" w) in
      run_cmd w flags ~trace:true ~spans_file:(Some file)
  | [ "all" ] -> all_cmd flags
  | [ "calibrate" ] ->
      let names =
        match List.filter_map (fun (k, v) -> if k = "workload" then Some v else None) flags with
        | [] -> List.map (fun w -> w.name) workloads
        | ws -> List.rev_map (fun w -> (workload_named w).name) ws
      in
      Report.calibrate ~workloads:names ~size:(size_flag flags) ~seed:(seed_flag flags)
        ~seconds:(seconds_flag flags)
        ~runs:(flag flags "runs" int_of_string_opt 5)
        ~out:(flag flags "out" Option.some "_benchmark/calibrate.json")
  | [ "compare"; a; b ] ->
      Report.compare ~bench:(flag flags "bench" Option.some "BENCHMARK.json") a b
  | [ "smoke"; bench ] -> smoke bench
  | _ -> usage "no such command (see the header of benchmark/main.ml)"

let () =
  match main (List.tl (Array.to_list Sys.argv)) with
  | true -> exit 0
  | false -> exit 1
  | exception Usage msg ->
      prerr_endline ("benchmark: " ^ msg);
      exit 2
