open Peel_sim

type stage = Static | Refined

let stage_to_string = function Static -> "static" | Refined -> "refined"

type config = {
  rpc : float;
  per_rule : float;
  capacity : int;
  policy : Tcam.policy;
  budget : int option;
}

let default_config =
  { rpc = 2e-3; per_rule = 20e-6; capacity = 1024; policy = Tcam.Lru; budget = Some 1 }

type group_state = {
  gs_switches : (int * int) list;
  gs_cost : int;
  mutable gs_stage : stage;
  mutable gs_live : bool;
}

type t = {
  cfg : config;
  tcam : Tcam.t option;
  trace : Trace.t;
  groups : (int, group_state) Hashtbl.t;
}

let create ?(trace = Trace.null) cfg =
  if cfg.rpc < 0.0 || not (Float.is_finite cfg.rpc) then
    invalid_arg "Controller.create: rpc must be >= 0";
  if cfg.per_rule < 0.0 || not (Float.is_finite cfg.per_rule) then
    invalid_arg "Controller.create: per_rule must be >= 0";
  (match cfg.budget with
  | Some b when b < 1 -> invalid_arg "Controller.create: budget must be >= 1"
  | Some _ | None -> ());
  let tcam =
    if cfg.capacity <= 0 then None
    else Some (Tcam.create ~capacity:cfg.capacity ~policy:cfg.policy)
  in
  { cfg; tcam; trace; groups = Hashtbl.create 16 }

let config t = t.cfg
let tcam t = t.tcam
let budget t = t.cfg.budget

let install_latency t ~nrules =
  t.cfg.rpc +. (float_of_int nrules *. t.cfg.per_rule)

let stage t ~gid =
  match Hashtbl.find_opt t.groups gid with
  | Some gs -> gs.gs_stage
  | None -> Static

let installs t = match t.tcam with Some tc -> Tcam.installs tc | None -> 0
let evictions t = match t.tcam with Some tc -> Tcam.evictions tc | None -> 0

(* The install RPC completed: claim TCAM space at every switch of the
   refined tree (evicting victims back to their static stage), then
   flip the group to Refined.  Runs as an engine event at
   [arrival + install_latency]. *)
let finish t engine gid =
  match (Hashtbl.find_opt t.groups gid, t.tcam) with
  | Some gs, Some tcam when gs.gs_live && gs.gs_stage = Static ->
      let now = Engine.now engine in
      List.iter
        (fun (sw, _ports) ->
          let victims = Tcam.install tcam ~now ~switch:sw ~group:gid in
          List.iter
            (fun v ->
              ignore (Tcam.remove_group tcam ~group:v);
              (match Hashtbl.find_opt t.groups v with
              | Some vs -> vs.gs_stage <- Static
              | None -> ());
              Trace.evict t.trace ~time:now ~group:v ~switch:sw)
            victims)
        gs.gs_switches;
      List.iter
        (fun (sw, ports) ->
          Trace.rule_install t.trace ~time:now ~group:gid ~switch:sw
            ~rules:ports)
        gs.gs_switches;
      gs.gs_stage <- Refined;
      Trace.refine t.trace ~time:now ~group:gid ~cost:gs.gs_cost
  | _ -> ()

let admit t engine ~gid ~at ~switches ~cost =
  if Hashtbl.mem t.groups gid then
    invalid_arg "Controller.admit: duplicate group id";
  let gs =
    { gs_switches = switches; gs_cost = cost; gs_stage = Static; gs_live = true }
  in
  Hashtbl.replace t.groups gid gs;
  match t.tcam with
  | None -> ()
  | Some _ ->
      let nrules = List.length switches in
      if nrules > 0 then
        Engine.schedule engine
          (at +. install_latency t ~nrules)
          (fun () -> finish t engine gid)

let touch t ~now ~gid ~bytes =
  match (t.tcam, Hashtbl.find_opt t.groups gid) with
  | Some tc, Some gs when gs.gs_stage = Refined ->
      List.iter
        (fun (sw, _) -> Tcam.touch tc ~now ~switch:sw ~group:gid ~bytes)
        gs.gs_switches
  | _ -> ()

let release t ~gid =
  (match Hashtbl.find_opt t.groups gid with
  | Some gs ->
      gs.gs_live <- false;
      gs.gs_stage <- Static
  | None -> ());
  match t.tcam with
  | Some tc -> ignore (Tcam.remove_group tc ~group:gid)
  | None -> ()
