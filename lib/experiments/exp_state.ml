open Peel_prefix

type row = {
  k : int;
  hosts : int;
  peel_rules : int;
  naive_entries : float;
  reduction : float;
  header_bytes : int;
}

let compute () =
  List.map
    (fun k ->
      {
        k;
        hosts = k * k * k / 4;
        peel_rules = Rules.peel_entries ~k;
        naive_entries = Rules.naive_ipmc_entries ~k;
        reduction = Rules.state_reduction_factor ~k;
        header_bytes = Header.header_bytes ~k;
      })
    [ 4; 8; 16; 32; 64; 128 ]

let run _mode =
  let rows = compute () in
  Peel_util.Table.print
    ~header:[ "k"; "hosts"; "PEEL rules"; "naive IPMC entries"; "reduction"; "header" ]
    (List.map
       (fun r ->
         [
           string_of_int r.k;
           string_of_int r.hosts;
           string_of_int r.peel_rules;
           Printf.sprintf "%.2e" r.naive_entries;
           Printf.sprintf "%.1e x" r.reduction;
           Printf.sprintf "%d B" r.header_bytes;
         ])
       rows);
  Common.note "paper: 63 rules instead of >4e9 at k=64; header <8 B up to k=128"
