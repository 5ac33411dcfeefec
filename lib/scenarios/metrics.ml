open Heimdall_net
open Heimdall_config
open Heimdall_control
open Heimdall_verify
open Heimdall_privilege
open Heimdall_msp

type technique = All_access | Neighbor_access | Heimdall_twin

let technique_to_string = function
  | All_access -> "all"
  | Neighbor_access -> "neighbor"
  | Heimdall_twin -> "heimdall"

type point = {
  failed : Topology.endpoint;
  feasible : bool;
  attack_surface : float;
  exposed_nodes : int;
}

type summary = {
  technique : technique;
  points : point list;
  feasibility_pct : float;
  attack_surface_pct : float;
}

let is_infra kind =
  match kind with
  | Topology.Router | Topology.Firewall -> true
  | Topology.Switch | Topology.Host -> false

let failure_candidates net =
  let topo = Network.topology net in
  List.concat_map
    (fun (n : Topology.node) ->
      if not (is_infra n.kind) then []
      else
        match Network.config n.name net with
        | None -> []
        | Some cfg ->
            let wired = Topology.interfaces_of n.name topo in
            List.filter_map
              (fun (i : Ast.interface) ->
                let relevant =
                  i.enabled && i.addr <> None
                  && (List.mem i.if_name wired
                     || String.length i.if_name > 4 && String.sub i.if_name 0 4 = "vlan")
                in
                if relevant then Some { Topology.node = n.name; iface = i.if_name }
                else None)
              cfg.interfaces)
    (Topology.nodes topo)

(* Actions whose abuse can change forwarding behaviour or destroy state. *)
let dangerous_action a =
  (not (Action.is_read_only a)) && a <> "secret.set" && a <> "interface.description"

let kind_of net node = Option.value (Network.kind node net) ~default:Topology.Host

(* The privilege a technique grants for a given incident. *)
let privilege_for net technique ~endpoints ~ticket =
  match technique with
  | All_access -> Privilege.allow_all
  | Neighbor_access ->
      let topo = Network.topology net in
      let nodes =
        List.concat_map (fun e -> e :: Topology.neighbors e topo) endpoints
        |> List.sort_uniq String.compare
      in
      Privilege.of_predicates [ Privilege.allow ~actions:[ "*" ] ~nodes () ]
  | Heimdall_twin ->
      let slice =
        Heimdall_twin.Slicer.slice Heimdall_twin.Slicer.Task net ~endpoints
      in
      Priv_gen.for_ticket ~network:net ~slice ticket

let attack_surface net policies healthy_paths privilege =
  let nodes = Network.node_names net in
  let allowed_by_node =
    List.map
      (fun n -> (n, Privilege.allowed_actions privilege ~node:n ~kind:(kind_of net n)))
      nodes
  in
  let sum_c =
    List.fold_left (fun acc (_, actions) -> acc + List.length actions) 0 allowed_by_node
  in
  let sum_a =
    List.fold_left
      (fun acc n -> acc + List.length (Action.available_on (kind_of net n)))
      0 nodes
  in
  let node_dangerous n =
    match List.assoc_opt n allowed_by_node with
    | Some actions -> List.exists dangerous_action actions
    | None -> false
  in
  let vp =
    List.length
      (List.filter
         (fun (p : Policy.t) ->
           match List.assoc_opt p.id healthy_paths with
           | Some path -> List.exists node_dangerous path
           | None -> false)
         policies)
  in
  let total_p = max 1 (List.length policies) in
  let exposed =
    List.length (List.filter (fun (_, actions) -> actions <> []) allowed_by_node)
  in
  ( ((float_of_int sum_c /. float_of_int (max 1 sum_a) *. 0.5)
    +. (float_of_int vp /. float_of_int total_p *. 0.5))
    *. 100.0,
    exposed )

(* Identify the incident a failure causes: the endpoints of a broken
   reachability policy, or the failed link's two ends as a fallback. *)
let incident_endpoints engine net dp policies healthy_violated (failed : Topology.endpoint) =
  let broken_policy =
    List.find_opt
      (fun (p : Policy.t) ->
        (not (List.mem p.id healthy_violated))
        && p.flow.proto = Flow.Icmp
        &&
        match Policy.verdict_of_trace p (Engine.trace engine dp p.flow) with
        | Policy.Violated _ -> true
        | Policy.Holds -> false)
      policies
  in
  match broken_policy with
  | Some p ->
      (* [dp] is the failed network's: a failure only disables an
         interface, so its address owners are those of [net]. *)
      let owner addr = Option.map fst (Dataplane.owner_of_address addr dp) in
      List.filter_map owner [ p.flow.src; p.flow.dst ]
  | None -> (
      match Topology.peer failed (Network.topology net) with
      | Some peer -> [ failed.node; peer.node ]
      | None -> [ failed.node ])

let sweep_points ~engine ~production ~policies () =
  Engine.phase engine "sweep/prepare" @@ fun () ->
  (* Shared per-network data: the healthy dataplane and its traces are
     computed once and reused by every sweep point. *)
  let healthy_dp = Engine.dataplane engine production in
  let healthy_paths =
    Engine.map engine
      (fun (p : Policy.t) ->
        (p.id, Trace.nodes_on_path (Engine.trace engine healthy_dp p.flow)))
      policies
  in
  let healthy_violated =
    (Policy.check_all ~engine healthy_dp policies).violations
    |> List.map (fun ((p : Policy.t), _) -> p.id)
  in
  let candidates = failure_candidates production in
  Engine.map engine
    (fun (failed : Topology.endpoint) ->
      let change =
        Change.v failed.node
          (Change.Set_interface_enabled { iface = failed.iface; enabled = false })
      in
      let broken, broken_dp =
        match Network.apply_changes [ change ] production with
        (* Each broken network is a one-interface variation of production:
           build its dataplane incrementally against the healthy one. *)
        | Ok net -> (net, Engine.dataplane ~base:healthy_dp engine net)
        | Error m -> invalid_arg ("Metrics.sweep: " ^ m)
      in
      let endpoints =
        incident_endpoints engine production broken_dp policies healthy_violated failed
      in
      let ticket =
        Ticket.make ~id:"SWEEP" ~kind:Ticket.Connectivity
          ~description:"interface failure sweep" ~endpoints
      in
      (failed, broken, endpoints, ticket, healthy_paths))
    candidates

let summarise technique points =
  let n = max 1 (List.length points) in
  {
    technique;
    points;
    feasibility_pct =
      100.0
      *. float_of_int (List.length (List.filter (fun p -> p.feasible) points))
      /. float_of_int n;
    attack_surface_pct =
      List.fold_left (fun acc p -> acc +. p.attack_surface) 0.0 points /. float_of_int n;
  }

let evaluate_technique ~engine ~production ~policies technique prepared =
  Engine.phase engine ("sweep/evaluate-" ^ technique_to_string technique) @@ fun () ->
  let points =
    Engine.map engine
      (fun ((failed : Topology.endpoint), broken, endpoints, ticket, healthy_paths) ->
        let privilege = privilege_for broken technique ~endpoints ~ticket in
        let feasible =
          Privilege.allows privilege
            (Privilege.request ~iface:failed.iface "interface.up" failed.node)
        in
        let surface, exposed = attack_surface production policies healthy_paths privilege in
        { failed; feasible; attack_surface = surface; exposed_nodes = exposed })
      prepared
  in
  summarise technique points

let sweep ~engine ~production ~policies technique =
  let prepared = sweep_points ~engine ~production ~policies () in
  evaluate_technique ~engine ~production ~policies technique prepared

let sweep_all ~engine ~production ~policies () =
  let prepared = sweep_points ~engine ~production ~policies () in
  List.map
    (fun t -> evaluate_technique ~engine ~production ~policies t prepared)
    [ All_access; Neighbor_access; Heimdall_twin ]
