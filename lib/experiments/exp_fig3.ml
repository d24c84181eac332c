open Peel_baselines

type row = {
  k : int;
  by_fpr : (float * float) list;
  peel_bytes : int;
}

let fprs = [ 0.01; 0.05; 0.10; 0.15; 0.20 ]
let ks = [ 4; 8; 16; 32; 64 ]

let compute () =
  List.map
    (fun k ->
      {
        k;
        by_fpr = List.map (fun fpr -> (fpr, Rsbf.header_bytes ~k ~fpr)) fprs;
        peel_bytes = Peel_prefix.Header.header_bytes ~k;
      })
    ks

let run _mode =
  Common.note "fabric-wide broadcast group; MTU = 1500 B; PEEL column for contrast";
  let rows = compute () in
  let header =
    "k"
    :: List.map (fun fpr -> Printf.sprintf "FPR=%.0f%%" (fpr *. 100.0)) fprs
    @ [ "PEEL header" ]
  in
  Peel_util.Table.print ~header
    (List.map
       (fun r ->
         string_of_int r.k
         :: List.map
              (fun (_, bytes) ->
                if bytes > 1500.0 then Printf.sprintf "%.0f B (>MTU)" bytes
                else Printf.sprintf "%.0f B" bytes)
              r.by_fpr
         @ [ Printf.sprintf "%d B" r.peel_bytes ])
       rows);
  Common.note "paper: RSBF exceeds one MTU once k > 32 even at 20% FPR"
