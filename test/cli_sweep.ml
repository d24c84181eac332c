(* CLI edge sweep (the @cli-sweep alias): every valued flag of every
   peel_cli subcommand, as the subcommand's --help=plain lists it, runs
   at 0, -1 and nan.  A cell passes when it exits 0 (the value is
   legal) or 2 (a usage error) and prints no "internal error"; any
   other exit, 125 above all, fails the sweep.  Reading the flags from
   the help text sweeps a new flag without an edit here.

   The values stay small on purpose: a large --jobs or size would ask
   for that many domains or that much memory.  Every cell runs in one
   scratch directory, so a file flag set to "0" writes nowhere else.

   Usage: cli_sweep.exe PEEL_CLI_EXE.  Exits 1 listing the failed
   cells. *)

let values = [ "0"; "-1"; "nan" ]

(* The positional arguments a subcommand needs before its flags are
   read at all. *)
let positional = function "experiment" -> [ "fig3" ] | _ -> []

(* The exit status and the combined stdout and stderr of one run. *)
let run exe args =
  let out = Filename.temp_file "cli_sweep" ".txt" in
  let status = Sys.command (Filename.quote_command exe args ~stdout:out ~stderr:out) in
  let text = In_channel.with_open_bin out In_channel.input_all in
  Sys.remove out;
  (status, text)

(* Plain help indents each entry of a section (a command, an option)
   by exactly seven spaces, and its description by more. *)
let entries lines =
  lines
  |> List.filter_map (fun l ->
         let n = String.length l in
         if n > 7 && String.sub l 0 7 = "       " && l.[7] <> ' ' then
           Some (String.sub l 7 (n - 7))
         else None)

(* The subcommands: the entries of the COMMANDS section. *)
let subcommands exe =
  let _, text = run exe [ "--help=plain" ] in
  let rec after = function
    | [] -> []
    | l :: rest -> if l = "COMMANDS" then rest else after rest
  in
  let rec until_header = function
    | l :: rest when l = "" || l.[0] = ' ' -> l :: until_header rest
    | _ -> []
  in
  String.split_on_char '\n' text |> after |> until_header |> entries
  |> List.map (fun e -> List.hd (String.split_on_char ' ' e))

(* How to pass [v] to each flag that takes a value.  An entry reads
   "-j N, --jobs=N", "--schemes=S1,S2 (absent=...)" or "-k K
   (absent=8)"; its last form is the one used.  A switch ("--quiet")
   and an optional value ("--help[=FMT]") are left out. *)
let valued_flags exe sub =
  let _, text = run exe [ sub; "--help=plain" ] in
  let last_form e =
    let rec go i start =
      if i + 2 >= String.length e then String.sub e start (String.length e - start)
      else if e.[i] = ',' && e.[i + 1] = ' ' && e.[i + 2] = '-' then go (i + 1) (i + 2)
      else go (i + 1) start
    in
    go 0 0
  in
  entries (String.split_on_char '\n' text)
  |> List.filter_map (fun e ->
         if e.[0] <> '-' then None
         else
           let e =
             match String.index_opt e '(' with
             | Some i -> String.trim (String.sub e 0 i)
             | None -> e
           in
           let form = last_form e in
           let at c = String.index_opt form c in
           match (at '[', at '=', at ' ') with
           | Some _, _, _ | None, None, None -> None
           | None, Some i, _ -> Some (fun v -> String.sub form 0 (i + 1) ^ v)
           | None, None, Some i -> Some (fun v -> String.sub form 0 i ^ v))

let contains text sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length text && (String.sub text i n = sub || go (i + 1))
  in
  go 0

let () =
  let exe =
    match Sys.argv with
    | [| _; exe |] ->
        if Filename.is_relative exe then Filename.concat (Sys.getcwd ()) exe else exe
    | _ ->
        prerr_endline "usage: cli_sweep.exe PEEL_CLI_EXE";
        exit 2
  in
  let dir = Filename.temp_dir "cli_sweep" "" in
  Sys.chdir dir;
  let cells = ref 0 and failed = ref [] in
  List.iter
    (fun sub ->
      List.iter
        (fun arg ->
          List.iter
            (fun v ->
              let args = (sub :: positional sub) @ [ arg v ] in
              let status, text = run exe args in
              incr cells;
              if (status <> 0 && status <> 2) || contains text "internal error" then
                failed := (String.concat " " args, status) :: !failed)
            values)
        (valued_flags exe sub))
    (subcommands exe);
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir;
  List.iter
    (fun (args, status) -> Printf.printf "cli-sweep: peel_cli %s exited %d\n" args status)
    (List.rev !failed);
  Printf.printf "cli-sweep: %d cell(s), %d failed\n" !cells (List.length !failed);
  if !failed <> [] then exit 1
