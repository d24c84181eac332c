let bits_per_element ~fpr =
  if fpr <= 0.0 || fpr >= 1.0 then invalid_arg "Rsbf.bits_per_element: fpr in (0,1)";
  -.log fpr /. (log 2.0 *. log 2.0)

let broadcast_tree_elements ~k ?hosts_per_tor () =
  if k < 4 || k mod 2 <> 0 then invalid_arg "Rsbf: k must be even, >= 4";
  let half = k / 2 in
  let hpt = Option.value hosts_per_tor ~default:half in
  let tors = k * half in
  let hosts = tors * hpt in
  (* Up path: host->tor, tor->agg, agg->core (3 entries).  Down:
     core->agg for the k-1 other pods; one agg->tor per ToR (the source
     pod's aggregation switch covers its own ToRs); tor->host for every
     host except the source. *)
  3 + (k - 1) + tors + (hosts - 1)

let header_bytes ~k ~fpr =
  let n = float_of_int (broadcast_tree_elements ~k ()) in
  n *. bits_per_element ~fpr /. 8.0

let exceeds_mtu ~k ~fpr () = header_bytes ~k ~fpr > 1500.0

let bandwidth_overhead ~k ~fpr ~payload =
  if payload <= 0 then invalid_arg "Rsbf.bandwidth_overhead: payload > 0";
  header_bytes ~k ~fpr /. float_of_int payload

let expected_false_positive_links ~k ~fpr =
  if k < 4 || k mod 2 <> 0 then invalid_arg "Rsbf: k must be even, >= 4";
  let half = float_of_int (k / 2) in
  let kf = float_of_int k in
  (* Ports of switches on the tree that are NOT tree links get tested
     against the filter.  ToRs: k/2 uplinks each, of which 1 is used on
     the broadcast's down path (and hosts all covered).  Aggs: k/2
     core uplinks + k/2 tor downlinks, ~1 uplink + k/2 downlinks used.
     Cores: k pod links, all used in a broadcast.  The dominant
     non-tree port population is the ToR and Agg spare uplinks. *)
  let tor_spare = kf *. half *. (half -. 1.0) in
  let agg_spare = kf *. half *. (half -. 1.0) in
  fpr *. (tor_spare +. agg_spare)
