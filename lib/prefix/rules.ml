module Bits = Peel_util.Bits

type rule = { prefix : Cover.prefix; ports : int list }

type table = { m : int; by_prefix : (Cover.prefix, rule) Hashtbl.t }

let static_table ~m =
  if m < 0 || m > 24 then invalid_arg "Rules.static_table: m out of range";
  let by_prefix = Hashtbl.create (Bits.pow2 (m + 1)) in
  for len = 0 to m do
    for value = 0 to Bits.pow2 len - 1 do
      let prefix = { Cover.value; len } in
      Hashtbl.replace by_prefix prefix { prefix; ports = Cover.expand ~m prefix }
    done
  done;
  { m; by_prefix }

let id_bits t = t.m

let rules t =
  Hashtbl.fold (fun _ r acc -> r :: acc) t.by_prefix []
  |> List.sort (fun a b -> compare (a.prefix.Cover.len, a.prefix.Cover.value)
                    (b.prefix.Cover.len, b.prefix.Cover.value))

let size t = Hashtbl.length t.by_prefix


let lookup t prefix =
  match Hashtbl.find_opt t.by_prefix prefix with
  | Some r -> r
  | None ->
      invalid_arg
        (Printf.sprintf
           "Rules.lookup: prefix {value=%d; len=%d} outside the %d-bit table \
            (valid: 0 <= len <= %d, 0 <= value < 2^len)"
           prefix.Cover.value prefix.Cover.len t.m t.m)

let match_ports t header ~m =
  let prefix = Header.decode ~m header.Header.raw in
  (lookup t prefix).ports

let peel_entries ~k =
  if k < 4 then invalid_arg "Rules.peel_entries: k >= 4";
  k - 1

let naive_ipmc_entries ~k =
  if k < 4 then invalid_arg "Rules.naive_ipmc_entries: k >= 4";
  2.0 ** (float_of_int k /. 2.0)

let state_reduction_factor ~k =
  naive_ipmc_entries ~k /. float_of_int (peel_entries ~k)
