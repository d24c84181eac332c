type severity = Error | Warning | Info

type t = {
  severity : severity;
  code : string;
  message : string;
  location : string;
}

let make severity ~code ~loc fmt =
  Printf.ksprintf
    (fun message -> { severity; code; message; location = loc })
    fmt

let errorf ~code ~loc fmt = make Error ~code ~loc fmt
let warningf ~code ~loc fmt = make Warning ~code ~loc fmt

let severity_to_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let to_string d =
  Printf.sprintf "%s[%s] %s: %s"
    (severity_to_string d.severity)
    d.code d.location d.message

let errors ds = List.filter (fun d -> d.severity = Error) ds
let has_errors ds = List.exists (fun d -> d.severity = Error) ds
let has_code code ds = List.exists (fun d -> d.code = code) ds

let rank = function Error -> 0 | Warning -> 1 | Info -> 2

let sort ds =
  List.stable_sort
    (fun a b -> compare (rank a.severity, a.code) (rank b.severity, b.code))
    ds

let pp_report ppf = function
  | [] -> Format.fprintf ppf "no findings@."
  | ds -> List.iter (fun d -> Format.fprintf ppf "%s@." (to_string d)) ds
