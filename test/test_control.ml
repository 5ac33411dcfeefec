(* Tests for the control-plane layer: network container, L2 domains,
   OSPF, RIB selection and dataplane computation.  Fixtures are
   built with the scenarios Builder. *)

open Heimdall_net
open Heimdall_config
open Heimdall_control
module B = Heimdall_scenarios.Builder

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

let ia = Ifaddr.of_string
let ip = Ipv4.of_string
let pfx = Prefix.of_string

(* A triangle of routers with a host on each side and a VLAN'd switch:

     h1 -- r1 ---- r2 -- h2
             \    /
              r3          (r1-r3 cost 1, r2-r3 cost 1, r1-r2 cost 10)
              |
     h3 -- sw1 (vlan 10, SVI on r3)
*)
let triangle () =
  let b = B.create () in
  List.iter (B.router b) [ "r1"; "r2"; "r3" ];
  B.switch b "sw1";
  ignore (B.p2p ~area:0 ~cost:10 b "r1" "r2");
  ignore (B.p2p ~area:0 ~cost:1 b "r1" "r3");
  ignore (B.p2p ~area:0 ~cost:1 b "r2" "r3");
  B.routed_host ~area:0 b ~host_name:"h1" ~dev:"r1" ~subnet:(pfx "10.1.0.0/24") ~host_octet:10;
  B.routed_host ~area:0 b ~host_name:"h2" ~dev:"r2" ~subnet:(pfx "10.2.0.0/24") ~host_octet:10;
  B.svi ~area:0 b "r3" 10 (ia "10.3.0.1/24");
  B.trunk_link b "sw1" "r3" ~vlans:[ 10 ];
  B.attach_host b ~host_name:"h3" ~dev:"sw1" ~vlan:10 ~addr:(ia "10.3.0.10/24")
    ~gateway:(ip "10.3.0.1");
  B.build b

(* ---------------- Network ---------------- *)

let test_network_accessors () =
  let net = triangle () in
  checkb "config" true (Network.config "r1" net <> None);
  checkb "unknown" true (Network.config "zz" net = None);
  checkb "kind" true (Network.kind "sw1" net = Some Topology.Switch);
  checkb "validate" true (Network.validate net = Ok ());
  checkb "owner" true (Network.owner_of_address (ip "10.1.0.10") net = Some ("h1", "eth0"))

let test_network_restrict () =
  let net = triangle () in
  let small = Network.restrict [ "r1"; "r3"; "h1" ] net in
  checki "nodes" 3 (List.length (Network.node_names small));
  (* Only links with both ends kept survive. *)
  checki "links" 2 (Topology.link_count (Network.topology small));
  checkb "config kept" true (Network.config "r1" small <> None)

let test_network_validate_catches_subnet_mismatch () =
  let net = triangle () in
  let bad =
    Result.get_ok
      (Network.apply_changes
         [
           Change.v "r1"
             (Change.Set_interface_addr { iface = "eth0"; addr = Some (ia "192.168.9.1/24") });
         ]
         net)
  in
  checkb "caught" true (Result.is_error (Network.validate bad))

let test_network_hostname_consistency () =
  let topo =
    Topology.empty |> Topology.add_node "a" Topology.Router
  in
  Alcotest.check_raises "hostname mismatch"
    (Invalid_argument "Network.make: node a has hostname b") (fun () ->
      ignore (Network.make topo [ ("a", Ast.make "b") ]))

(* ---------------- L2 ---------------- *)

let test_l2_direct_link () =
  let net = triangle () in
  let l2 = L2.compute net in
  checkb "p2p same domain" true
    (L2.same_domain { node = "r1"; iface = "eth0" } { node = "r2"; iface = "eth0" } l2);
  checkb "different links differ" false
    (L2.same_domain { node = "r1"; iface = "eth0" } { node = "r2"; iface = "eth1" } l2)

let test_l2_vlan_through_switch () =
  let net = triangle () in
  let l2 = L2.compute net in
  (* h3's port joins vlan 10 on sw1, trunked to r3 whose SVI lives there. *)
  checkb "host to svi" true
    (L2.same_domain { node = "h3"; iface = "eth0" } { node = "r3"; iface = "vlan10" } l2);
  checkb "switch listed" true
    (match L2.domain_of { node = "h3"; iface = "eth0" } l2 with
    | Some d -> List.mem "sw1" (L2.domain_switches d l2)
    | None -> false)

let test_l2_wrong_vlan_breaks_domain () =
  let net = triangle () in
  let port =
    (* h3's access port on sw1: first switchport-access interface. *)
    match
      List.find_opt
        (fun (i : Ast.interface) -> i.switchport = Some (Ast.Access 10))
        (Network.config_exn "sw1" net).interfaces
    with
    | Some i -> i.if_name
    | None -> Alcotest.fail "no access port"
  in
  let broken =
    Result.get_ok
      (Network.apply_changes
         [ Change.v "sw1" (Change.Set_switchport { iface = port; switchport = Some (Ast.Access 99) }) ]
         net)
  in
  let l2 = L2.compute broken in
  checkb "domain broken" false
    (L2.same_domain { node = "h3"; iface = "eth0" } { node = "r3"; iface = "vlan10" } l2)

let test_l2_shutdown_detaches () =
  let net = triangle () in
  let broken =
    Result.get_ok
      (Network.apply_changes
         [ Change.v "r1" (Change.Set_interface_enabled { iface = "eth0"; enabled = false }) ]
         net)
  in
  let l2 = L2.compute broken in
  checkb "detached" false
    (L2.same_domain { node = "r1"; iface = "eth0" } { node = "r2"; iface = "eth0" } l2)

let test_l2_access_trunk_mismatch () =
  (* A trunk that no longer allows a VLAN stops bridging it. *)
  let net = triangle () in
  let broken =
    (* Narrow the trunk on sw1's uplink to vlan 20 only: vlan 10 frames
       no longer cross. *)
    let uplink =
      List.find_map
        (fun (i : Ast.interface) ->
          match i.switchport with Some (Ast.Trunk _) -> Some i.if_name | _ -> None)
        (Network.config_exn "sw1" net).interfaces
      |> Option.get
    in
    Result.get_ok
      (Network.apply_changes
         [
           Change.v "sw1"
             (Change.Set_switchport { iface = uplink; switchport = Some (Ast.Trunk [ 20 ]) });
         ]
         net)
  in
  let l2 = L2.compute broken in
  checkb "vlan filtered off trunk" false
    (L2.same_domain { node = "h3"; iface = "eth0" } { node = "r3"; iface = "vlan10" } l2)

(* ---------------- OSPF ---------------- *)

let test_ospf_enabled_interfaces () =
  let net = triangle () in
  let ifaces = Ospf.enabled_interfaces net in
  (* r1: 3 (two transit + host subnet), r2: 3, r3: 3 (two transit + SVI). *)
  checki "count" 9 (List.length ifaces);
  checkb "svi included" true
    (List.exists (fun (i : Ospf.iface) -> i.router = "r3" && i.iface = "vlan10") ifaces)

let test_ospf_adjacency () =
  let net = triangle () in
  let adjs = Ospf.adjacencies net (L2.compute net) in
  checki "three adjacencies" 3 (List.length adjs)

let test_ospf_prefers_low_cost () =
  let net = triangle () in
  let dp = Dataplane.compute net in
  (* r1 -> h2's subnet: direct r1-r2 costs 10+..., via r3 costs 1+1. *)
  match Fib.lookup (ip "10.2.0.10") (Dataplane.fib "r1" dp) with
  | Some route ->
      checkb "via r3" true
        (route.Fib.next_hop <> None
        &&
        let nh = Option.get route.Fib.next_hop in
        (* r3's address on the r1-r3 link. *)
        Prefix.contains (pfx "10.200.0.4/30") nh)
  | None -> Alcotest.fail "no route"

let test_ospf_area_mismatch_kills_adjacency () =
  let net = triangle () in
  let broken =
    Result.get_ok
      (Network.apply_changes
         [ Change.v "r1" (Change.Set_ospf_area { iface = "eth0"; area = Some 5 }) ]
         net)
  in
  let adjs = Ospf.adjacencies broken (L2.compute broken) in
  checki "one adjacency lost" 2 (List.length adjs)

let test_ospf_default_originate () =
  let b = B.create () in
  List.iter (B.router b) [ "e"; "c" ];
  ignore (B.p2p ~area:0 b "e" "c");
  B.routed_host ~area:0 b ~host_name:"hh" ~dev:"c" ~subnet:(pfx "10.8.0.0/24") ~host_octet:10;
  ignore (B.unwired_l3 b "e" (ia "203.0.113.2/30"));
  B.static_route b "e" Prefix.any (ip "203.0.113.1");
  B.default_originate b "e";
  let net = B.build b in
  let dp = Dataplane.compute net in
  match Fib.lookup (ip "8.8.8.8") (Dataplane.fib "c" dp) with
  | Some route -> checkb "default via ospf" true (route.Fib.protocol = Fib.Ospf)
  | None -> Alcotest.fail "no default route on c"

let test_ospf_interarea () =
  (* a --(area 1)-- abr --(area 0)-- b : a must learn b's subnet. *)
  let b = B.create () in
  List.iter (B.router b) [ "a"; "abr"; "bb" ];
  ignore (B.p2p ~area:1 b "a" "abr");
  ignore (B.p2p ~area:0 b "abr" "bb");
  B.routed_host ~area:1 b ~host_name:"ha" ~dev:"a" ~subnet:(pfx "10.21.0.0/24") ~host_octet:10;
  B.routed_host ~area:0 b ~host_name:"hb" ~dev:"bb" ~subnet:(pfx "10.22.0.0/24") ~host_octet:10;
  let net = B.build b in
  let dp = Dataplane.compute net in
  (match Fib.lookup (ip "10.22.0.10") (Dataplane.fib "a" dp) with
  | Some r -> checkb "inter-area route" true (r.Fib.protocol = Fib.Ospf)
  | None -> Alcotest.fail "a has no route to area-0 subnet");
  match Fib.lookup (ip "10.21.0.10") (Dataplane.fib "bb" dp) with
  | Some r -> checkb "reverse inter-area" true (r.Fib.protocol = Fib.Ospf)
  | None -> Alcotest.fail "bb has no route to area-1 subnet"

let test_ospf_two_abr_chain () =
  (* area 1 - abr1 - area 0 - abr2 - area 2: routes must cross twice. *)
  let b = B.create () in
  List.iter (B.router b) [ "x"; "abr1"; "abr2"; "y" ];
  ignore (B.p2p ~area:1 b "x" "abr1");
  ignore (B.p2p ~area:0 b "abr1" "abr2");
  ignore (B.p2p ~area:2 b "abr2" "y");
  B.routed_host ~area:1 b ~host_name:"hx" ~dev:"x" ~subnet:(pfx "10.31.0.0/24") ~host_octet:10;
  B.routed_host ~area:2 b ~host_name:"hy" ~dev:"y" ~subnet:(pfx "10.32.0.0/24") ~host_octet:10;
  let net = B.build b in
  let dp = Dataplane.compute net in
  match Fib.lookup (ip "10.32.0.10") (Dataplane.fib "x" dp) with
  | Some _ -> ()
  | None -> Alcotest.fail "no route across two ABRs"

(* ---------------- RIB / FIB selection ---------------- *)

let test_admin_distance_preference () =
  (* A static route should beat OSPF for the same prefix. *)
  let net = triangle () in
  let with_static =
    Result.get_ok
      (Network.apply_changes
         [
           Change.v "r1"
             (Change.Add_static_route
                { Ast.sr_prefix = pfx "10.2.0.0/24";
                  sr_next_hop = ip "10.200.0.2" (* via r2 directly *);
                  sr_distance = 1 });
         ]
         net)
  in
  let dp = Dataplane.compute with_static in
  match Fib.lookup (ip "10.2.0.10") (Dataplane.fib "r1" dp) with
  | Some r -> checkb "static wins" true (r.Fib.protocol = Fib.Static)
  | None -> Alcotest.fail "no route"

let test_fib_longest_prefix () =
  let routes =
    [
      { Fib.prefix = Prefix.any; next_hop = Some (ip "1.1.1.1"); out_iface = "e0";
        protocol = Fib.Static; distance = 1; metric = 0 };
      { Fib.prefix = pfx "10.0.0.0/8"; next_hop = Some (ip "2.2.2.2"); out_iface = "e1";
        protocol = Fib.Ospf; distance = 110; metric = 20 };
    ]
  in
  let fib = Fib.of_candidates routes in
  checki "two routes" 2 (Fib.route_count fib);
  (match Fib.lookup (ip "10.5.5.5") fib with
  | Some r -> checks "specific" "e1" r.Fib.out_iface
  | None -> Alcotest.fail "no route");
  match Fib.lookup (ip "11.0.0.1") fib with
  | Some r -> checks "default" "e0" r.Fib.out_iface
  | None -> Alcotest.fail "no default"

let test_fib_candidate_selection () =
  let mk protocol distance metric =
    { Fib.prefix = pfx "10.0.0.0/8"; next_hop = Some (ip "1.1.1.1");
      out_iface = Fib.protocol_to_string protocol; protocol; distance; metric }
  in
  let fib =
    Fib.of_candidates [ mk Fib.Ospf 110 5; mk Fib.Static 1 0; mk Fib.Connected 0 0 ]
  in
  match Fib.lookup (ip "10.1.1.1") fib with
  | Some r -> checkb "connected wins" true (r.Fib.protocol = Fib.Connected)
  | None -> Alcotest.fail "no route"

(* ---------------- Dataplane ---------------- *)

let test_connected_and_static_routes () =
  let net = triangle () in
  checki "r1 connected" 3 (List.length (Dataplane.connected_routes net "r1"));
  (* Host default gateway becomes a static default. *)
  let statics = Dataplane.static_routes net "h1" in
  checki "host static" 1 (List.length statics);
  checkb "default" true (Prefix.equal (List.hd statics).Fib.prefix Prefix.any)

let test_unresolvable_static_ignored () =
  let net = triangle () in
  let bad =
    Result.get_ok
      (Network.apply_changes
         [
           Change.v "r1"
             (Change.Add_static_route
                { Ast.sr_prefix = pfx "10.99.0.0/16";
                  sr_next_hop = ip "172.31.0.1" (* not in any connected subnet *);
                  sr_distance = 1 });
         ]
         net)
  in
  let statics = Dataplane.static_routes bad "r1" in
  checkb "ignored" true
    (not (List.exists (fun r -> Prefix.equal r.Fib.prefix (pfx "10.99.0.0/16")) statics))

let test_shut_interface_loses_connected () =
  let net = triangle () in
  let broken =
    Result.get_ok
      (Network.apply_changes
         [ Change.v "r1" (Change.Set_interface_enabled { iface = "eth2"; enabled = false }) ]
         net)
  in
  let before = List.length (Dataplane.connected_routes net "r1") in
  let after = List.length (Dataplane.connected_routes broken "r1") in
  checki "one fewer" (before - 1) after

let test_l3_neighbour () =
  let net = triangle () in
  let dp = Dataplane.compute net in
  checkb "adjacent" true (Dataplane.l3_neighbour dp "r1" (ip "10.200.0.2") <> None);
  checkb "not adjacent" true (Dataplane.l3_neighbour dp "h1" (ip "10.2.0.10") = None)

let suite =
  [
    Alcotest.test_case "network accessors" `Quick test_network_accessors;
    Alcotest.test_case "network restrict" `Quick test_network_restrict;
    Alcotest.test_case "network validate subnet mismatch" `Quick
      test_network_validate_catches_subnet_mismatch;
    Alcotest.test_case "network hostname consistency" `Quick test_network_hostname_consistency;
    Alcotest.test_case "l2 direct link" `Quick test_l2_direct_link;
    Alcotest.test_case "l2 vlan through switch" `Quick test_l2_vlan_through_switch;
    Alcotest.test_case "l2 wrong vlan breaks domain" `Quick test_l2_wrong_vlan_breaks_domain;
    Alcotest.test_case "l2 shutdown detaches" `Quick test_l2_shutdown_detaches;
    Alcotest.test_case "l2 trunk vlan filtering" `Quick test_l2_access_trunk_mismatch;
    Alcotest.test_case "ospf enabled interfaces" `Quick test_ospf_enabled_interfaces;
    Alcotest.test_case "ospf adjacencies" `Quick test_ospf_adjacency;
    Alcotest.test_case "ospf prefers low cost" `Quick test_ospf_prefers_low_cost;
    Alcotest.test_case "ospf area mismatch" `Quick test_ospf_area_mismatch_kills_adjacency;
    Alcotest.test_case "ospf default originate" `Quick test_ospf_default_originate;
    Alcotest.test_case "ospf inter-area" `Quick test_ospf_interarea;
    Alcotest.test_case "ospf two-abr chain" `Quick test_ospf_two_abr_chain;
    Alcotest.test_case "admin distance preference" `Quick test_admin_distance_preference;
    Alcotest.test_case "fib longest prefix" `Quick test_fib_longest_prefix;
    Alcotest.test_case "fib candidate selection" `Quick test_fib_candidate_selection;
    Alcotest.test_case "connected and static routes" `Quick test_connected_and_static_routes;
    Alcotest.test_case "unresolvable static ignored" `Quick test_unresolvable_static_ignored;
    Alcotest.test_case "shut interface loses connected" `Quick
      test_shut_interface_loses_connected;
    Alcotest.test_case "l3 neighbour" `Quick test_l3_neighbour;
  ]
