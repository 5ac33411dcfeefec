open Heimdall_net
open Heimdall_control
open Heimdall_privilege

let repair_actions = function
  | Ticket.Connectivity ->
      [
        "interface.up";
        "interface.shutdown";
        "interface.addr";
        "acl.rule";
        "acl.bind";
        "route.static";
        "ospf.cost";
        "ospf.area";
        "ospf.network";
      ]
  | Ticket.Routing ->
      [
        "interface.up";
        "interface.shutdown";
        "ospf.cost";
        "ospf.area";
        "ospf.network";
        "route.static";
      ]
  | Ticket.Vlan ->
      [ "interface.up"; "interface.shutdown"; "vlan.define"; "vlan.switchport" ]
  | Ticket.External ->
      [ "interface.up"; "interface.shutdown"; "interface.addr"; "route.static"; "route.gateway" ]

let infrastructure network nodes =
  List.filter
    (fun n ->
      match Network.kind n network with
      | Some (Topology.Router | Topology.Switch | Topology.Firewall) -> true
      | Some Topology.Host | None -> false)
    nodes

let for_ticket ~network ~slice (ticket : Ticket.t) =
  let show = Privilege.allow ~actions:[ "show.*"; "diag.*" ] ~nodes:slice () in
  let infra = infrastructure network slice in
  let repairs =
    if infra = [] then []
    else [ Privilege.allow ~actions:(repair_actions ticket.kind) ~nodes:infra () ]
  in
  Privilege.of_predicates ((show :: repairs) @ [])
