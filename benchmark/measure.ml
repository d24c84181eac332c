(* One workload run in this process: set up several times, run units
   until the time budget is spent, check every output, and report the
   end-to-end metrics (or, traced, the per-layer ones). *)

open Workload
module Json = Peel_util.Json

type result = {
  workload : string;
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float) list;  (** in dictionary order *)
  calls : (string * int) list;      (** per-layer call counts (traced) *)
  digest : string;
  units : int;
  findings : string list;
}

let setup_reps = function Smoke -> 3 | Bench | Full -> 7
let min_units = function Bench -> 3 | Smoke | Full -> 1
let max_findings = 20

(* Correctness of one unit: lints on the first unit, digest equality
   (and the seed-0 pin) on every unit.  Returns the failed operations
   and the findings. *)
let judge (w : Workload.t) ~size ~seed ~first (o : outcome) =
  let lint =
    match first with
    | None -> ( try o.check () with e -> [ "check raised " ^ Printexc.to_string e ])
    | Some _ -> []
  in
  let expected =
    match first with
    | Some d -> Some d
    | None -> if seed = 0 then List.assoc_opt size w.pins else None
  in
  let drift =
    match expected with
    | Some d when d <> o.digest -> [ Printf.sprintf "digest %s, expected %s" o.digest d ]
    | _ -> []
  in
  let failed = if drift <> [] then o.ops else min o.ops (List.length lint) in
  (failed, drift @ lint)

let finite x = if Float.is_finite x then x else 0.0

let run (w : Workload.t) ~size ~seed ~seconds ~trace ~spans_file =
  let jobs = Util.jobs () in
  (* Only the last instance is kept; each set-up starts from a
     collected heap. *)
  let inst = ref None and times = ref [] in
  for _ = 1 to setup_reps size do
    inst := None;
    Gc.full_major ();
    let i, t = Util.timed (fun () -> w.setup size ~seed ~jobs) in
    inst := Some i;
    times := t :: !times
  done;
  let inst = Option.get !inst in
  let setup_s = Util.median !times in
  let attempted = ref 0 and failed = ref 0 and findings = ref [] in
  let first = ref None in
  let account (o : outcome) =
    let f, fs = judge w ~size ~seed ~first:!first o in
    attempted := !attempted + o.ops;
    failed := !failed + f;
    findings := !findings @ fs;
    if !first = None then first := Some o.digest
  in
  let crash e =
    (* An exception loses the unit: count it as one failed operation. *)
    incr attempted;
    incr failed;
    findings := !findings @ [ "raised " ^ Printexc.to_string e ]
  in
  let metrics, calls, units =
    if trace then begin
      let sp = Spans.create ~run_id:(Printf.sprintf "%s-seed%d-%Ld" w.name seed (Util.now_ns ())) in
      let layers =
        Spans.with_ sp "run" (fun root ->
            match inst.traced sp ~root with
            | o, layers ->
                account o;
                layers
            | exception e ->
                crash e;
                [])
      in
      Option.iter (fun f -> Util.write_file f (Json.to_string (Spans.to_json sp))) spans_file;
      let get name =
        match List.find_opt (fun l -> l.l_name = name) layers with
        | Some l -> (finite l.l_value, l.l_calls)
        | None -> (0.0, 0)
      in
      let names = List.map (fun x -> x.m_name) per_layer in
      ( List.map (fun n -> (n, fst (get n))) names,
        List.map (fun n -> (n, snd (get n))) names,
        1 )
    end
    else begin
      let rates = ref [] and sends = ref 0 and link_bytes = ref 0.0 and heap = ref 0.0 in
      let t0 = Util.now_ns () in
      let last = ref 0.0 and stop = ref false in
      while
        (not !stop)
        && (List.length !rates < min_units size
           || Util.secs_since t0 +. !last <= float_of_int seconds)
      do
        let t1 = Util.now_ns () in
        Gc.compact ();
        (match inst.run_unit () with
        | o ->
            if !first = None then begin
              sends := o.sends;
              link_bytes := o.link_bytes;
              (* [o]'s closures hold the unit's state. *)
              heap := Util.live_heap_mb ();
              ignore (Sys.opaque_identity o)
            end;
            account o;
            rates := (float_of_int o.ops /. o.wall_s) :: !rates
        | exception e ->
            crash e;
            stop := true);
        last := Util.secs_since t1
      done;
      ( [
          ("ops_per_s", finite (Util.median !rates));
          ("setup_s", setup_s);
          ("live_heap_mb", !heap);
          ("link_mb_per_send", !link_bytes /. float_of_int (max 1 !sends) /. 1e6);
        ],
        [],
        List.length !rates )
    end
  in
  {
    workload = w.name;
    correct = !failed = 0 && !attempted > 0;
    attempted = max 1 !attempted;
    failed = !failed;
    metrics;
    calls;
    digest = Option.value !first ~default:"";
    units;
    findings = List.filteri (fun i _ -> i < max_findings) !findings;
  }

(* The result line the benchmark ends with. *)
let to_json r =
  Json.Obj
    [
      ("correct", Json.Bool r.correct);
      ("attempted", Json.int r.attempted);
      ("failed", Json.int r.failed);
      ( "metrics",
        Json.Obj
          (List.map
             (fun (n, v) -> (n, Json.Obj [ ("value", Json.num v); ("unit", Json.str (unit_of n)) ]))
             r.metrics) );
    ]

let print_human r =
  List.iter
    (fun (n, v) ->
      match List.assoc_opt n r.calls with
      | Some c -> Printf.printf "%s %s %.6g %s calls=%d\n" r.workload n v (unit_of n) c
      | None -> Printf.printf "%s %s %.6g %s\n" r.workload n v (unit_of n))
    r.metrics;
  Printf.printf "%s digest %s units %d attempted %d failed %d correct %b\n" r.workload r.digest
    r.units r.attempted r.failed r.correct;
  List.iter (fun f -> Printf.printf "%s finding %s\n" r.workload f) r.findings

let host_line ~size ~seed ~seconds =
  Printf.sprintf "# host nproc=%d jobs=%d ocaml=%s word_bits=%d size=%s seed=%d seconds=%d"
    (Util.nproc ()) (Util.jobs ()) Sys.ocaml_version Sys.word_size (size_to_string size) seed
    seconds

let host_json () =
  Json.Obj
    [
      ("nproc", Json.int (Util.nproc ()));
      ("jobs", Json.int (Util.jobs ()));
      ("ocaml", Json.str Sys.ocaml_version);
      ("word_bits", Json.int Sys.word_size);
    ]
