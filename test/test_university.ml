(* Deep-dive integration tests on the university network: multi-area
   OSPF behaviour, redundancy under failures, the datacentre firewall,
   and the dark-fibre backup links. *)

open Heimdall_net
open Heimdall_config
open Heimdall_control
open Heimdall_verify

(* The one verification context shared by this file's tests. *)
let engine = Heimdall_verify.Engine.create ~domains:1 ()

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let ip = Ipv4.of_string

let fixture = lazy (Heimdall_scenarios.Experiments.university ())

let trace net flow = Trace.trace (Dataplane.compute net) flow

(* ---------------- Multi-area OSPF ---------------- *)

let test_three_areas_plus_backbone () =
  let net, _ = Lazy.force fixture in
  let areas =
    Ospf.enabled_interfaces net
    |> List.map (fun (i : Ospf.iface) -> i.area)
    |> List.sort_uniq Int.compare
  in
  checkb "areas 0..3" true (areas = [ 0; 1; 2; 3 ])

let test_abrs () =
  let net, _ = Lazy.force fixture in
  let areas_of r =
    Ospf.enabled_interfaces net
    |> List.filter_map (fun (i : Ospf.iface) -> if i.router = r then Some i.area else None)
    |> List.sort_uniq Int.compare
  in
  checkb "dist1 is ABR 0/1" true (areas_of "dist1" = [ 0; 1 ]);
  checkb "dist2 is ABR 0/2" true (areas_of "dist2" = [ 0; 2 ]);
  checkb "dist3 is ABR 0/3" true (areas_of "dist3" = [ 0; 3 ]);
  checkb "core1 backbone only" true (areas_of "core1" = [ 0 ]);
  checkb "acc1 area 1 only" true (areas_of "acc1" = [ 1 ])

let test_interarea_reachability () =
  let net, _ = Lazy.force fixture in
  (* Area 1 (cs1) to area 3 (dorm1) crosses the backbone through two ABRs. *)
  let result = trace net (Flow.icmp (ip "10.11.10.11") (ip "10.15.50.11")) in
  checkb "delivered" true (Trace.is_delivered result);
  let nodes = Trace.nodes_on_path result in
  checkb "through dist1" true (List.mem "dist1" nodes);
  checkb "through dist3" true (List.mem "dist3" nodes)
(* The backbone hop is the direct dist1-dist3 area-0 link, so the cores
   are not necessarily on this path. *)

let test_dark_fibre_not_used () =
  let net, _ = Lazy.force fixture in
  (* acc2-acc3 and acc4-acc5 exist physically but run no IGP: no
     forwarding path may use them. *)
  let result = trace net (Flow.icmp (ip "10.12.20.11") (ip "10.13.30.11")) in
  checkb "delivered" true (Trace.is_delivered result);
  let hops = Trace.hops result in
  (* If the dark fibre were used, acc2 would forward straight to acc3;
     instead the path must include a dist router. *)
  checkb "not direct" true
    (List.exists (fun (h : Trace.hop) -> h.node = "dist1" || h.node = "dist2") hops)

(* ---------------- Redundancy ---------------- *)

let test_survives_single_uplink_failure () =
  let net, policies = Lazy.force fixture in
  (* Kill one member of acc1's dual uplink to dist1: everything keeps
     working because the second member carries the load. *)
  let uplinks =
    List.filter_map
      (fun (l : Topology.link) ->
        if l.a.node = "acc1" && l.b.node = "dist1" then Some l.a.iface
        else if l.b.node = "acc1" && l.a.node = "dist1" then Some l.b.iface
        else None)
      (Topology.links (Network.topology net))
  in
  checki "dual uplink" 2 (List.length uplinks);
  let broken =
    Result.get_ok
      (Network.apply_changes
         [
           Change.v "acc1"
             (Change.Set_interface_enabled { iface = List.hd uplinks; enabled = false });
         ]
         net)
  in
  let report = Policy.check_all ~engine (Dataplane.compute broken) policies in
  checki "no policy broken" 0 (List.length report.violations)

let test_survives_core_failure () =
  let net, policies = Lazy.force fixture in
  (* Lose core1 entirely (all its interfaces): core2 carries the campus. *)
  let core1_ifaces =
    (Network.config_exn "core1" net).interfaces
    |> List.map (fun (i : Ast.interface) ->
           Change.v "core1"
             (Change.Set_interface_enabled { iface = i.if_name; enabled = false }))
  in
  let broken = Result.get_ok (Network.apply_changes core1_ifaces net) in
  let report = Policy.check_all ~engine (Dataplane.compute broken) policies in
  checki "no policy broken" 0 (List.length report.violations)

let test_dist_failure_partitions_area () =
  let net, policies = Lazy.force fixture in
  (* dist1 is area 1's only ABR: losing it cuts CS/EE off (their only
     other physical path is the dark fibre, which runs no IGP). *)
  let dist1_ifaces =
    (Network.config_exn "dist1" net).interfaces
    |> List.map (fun (i : Ast.interface) ->
           Change.v "dist1"
             (Change.Set_interface_enabled { iface = i.if_name; enabled = false }))
  in
  let broken = Result.get_ok (Network.apply_changes dist1_ifaces net) in
  let report = Policy.check_all ~engine (Dataplane.compute broken) policies in
  checkb "many policies broken" true (List.length report.violations > 20)

(* ---------------- The datacentre firewall ---------------- *)

let test_fw_guards_dc () =
  let net, _ = Lazy.force fixture in
  (* Dorm ICMP to the servers is denied at fw1 (rules 10/20). *)
  (match trace net (Flow.icmp (ip "10.15.50.11") (ip "10.16.60.11")) with
  | Trace.Dropped (Trace.Acl_denied { node = "fw1"; acl = "DC_PROT"; _ }, _) -> ()
  | Trace.Dropped (r, _) -> Alcotest.fail (Trace.drop_reason_to_string r)
  | Trace.Delivered _ -> Alcotest.fail "dorm reached the DC");
  (* Dorm SMTP to anywhere in the DC is denied (rule 30). *)
  (match trace net (Flow.tcp ~dst_port:25 (ip "10.15.50.11") (ip "10.16.60.12")) with
  | Trace.Dropped (Trace.Acl_denied { rule_seq = Some 30; _ }, _) -> ()
  | _ -> Alcotest.fail "dorm SMTP not blocked");
  (* Dorm web to the DC is fine. *)
  checkb "dorm web ok" true
    (Trace.is_delivered (trace net (Flow.tcp ~dst_port:80 (ip "10.15.50.11") (ip "10.16.60.11"))));
  (* CS ICMP to the DC is fine and crosses fw1. *)
  let cs = trace net (Flow.icmp (ip "10.11.10.11") (ip "10.16.60.11")) in
  checkb "cs delivered" true (Trace.is_delivered cs);
  checkb "via fw1" true (List.mem "fw1" (Trace.nodes_on_path cs))

let test_waypoint_policies_mined () =
  let _, policies = Lazy.force fixture in
  let waypoints =
    List.filter
      (fun (p : Policy.t) ->
        match p.intent with Policy.Waypoint "fw1" -> true | _ -> false)
      policies
  in
  checkb "waypoint policies exist" true (List.length waypoints > 0);
  let isolated =
    List.filter (fun (p : Policy.t) -> p.intent = Policy.Isolated) policies
  in
  (* Two dorm subnets x two DC subnets (ICMP) + dorm SMTP sources. *)
  checkb "isolated policies exist" true (List.length isolated >= 4)

(* ---------------- Department L2 ---------------- *)

let test_same_vlan_two_switches () =
  let net, _ = Lazy.force fixture in
  (* cs1 (sw1a) and cs2 (sw1b) share vlan 10 across the inter-switch
     trunk: pure L2 delivery, no router hop. *)
  let result = trace net (Flow.icmp (ip "10.11.10.11") (ip "10.11.10.12")) in
  checkb "delivered" true (Trace.is_delivered result);
  let l3_hops = Trace.hops result in
  checki "two l3 hops (src, dst)" 2 (List.length l3_hops);
  let nodes = Trace.nodes_on_path result in
  checkb "bridged by dept switches" true
    (List.mem "sw1a" nodes && List.mem "sw1b" nodes)

let test_inter_vlan_same_dept () =
  let net, _ = Lazy.force fixture in
  (* cs1 (vlan 10) to cs3 (vlan 11): must route through acc1's SVIs. *)
  let result = trace net (Flow.icmp (ip "10.11.10.11") (ip "10.11.11.11")) in
  checkb "delivered" true (Trace.is_delivered result);
  checkb "routed via acc1" true (List.mem "acc1" (Trace.nodes_on_path result))

let suite =
  [
    Alcotest.test_case "three areas plus backbone" `Quick test_three_areas_plus_backbone;
    Alcotest.test_case "abrs" `Quick test_abrs;
    Alcotest.test_case "inter-area reachability" `Quick test_interarea_reachability;
    Alcotest.test_case "dark fibre not used" `Quick test_dark_fibre_not_used;
    Alcotest.test_case "survives single uplink failure" `Quick
      test_survives_single_uplink_failure;
    Alcotest.test_case "survives core failure" `Quick test_survives_core_failure;
    Alcotest.test_case "dist failure partitions its area" `Quick
      test_dist_failure_partitions_area;
    Alcotest.test_case "firewall guards the DC" `Quick test_fw_guards_dc;
    Alcotest.test_case "waypoint policies mined" `Quick test_waypoint_policies_mined;
    Alcotest.test_case "same vlan across two switches" `Quick test_same_vlan_two_switches;
    Alcotest.test_case "inter-vlan same department" `Quick test_inter_vlan_same_dept;
  ]
