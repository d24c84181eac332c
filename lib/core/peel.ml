module Plan = Plan
module Dataplane = Dataplane
module Tree = Peel_steiner.Tree
module Layer_peel = Peel_steiner.Layer_peel
module Symmetric = Peel_steiner.Symmetric
module Exact = Peel_steiner.Exact
module Cover = Peel_prefix.Cover
module Header = Peel_prefix.Header
module Rules = Peel_prefix.Rules
module Fabric = Peel_topology.Fabric
module Graph = Peel_topology.Graph

let multicast_tree fabric ~source ~dests =
  match Symmetric.build fabric ~source ~dests with
  | tree -> Some tree
  | exception Invalid_argument _ ->
      Layer_peel.build (Fabric.graph fabric) ~source ~dests

let tor_id_bits = Plan.tor_id_bits

let switch_rules fabric = Peel_util.Bits.pow2 (tor_id_bits fabric + 1) - 1

let header_bytes = Plan.header_bytes_for

let state_table fabric = Rules.static_table ~m:(tor_id_bits fabric)
