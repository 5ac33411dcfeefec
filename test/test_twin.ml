(* Tests for the twin network: command parsing, slicing, the emulation
   layer, the presentation layer's redaction guarantees, and the
   reference monitor. *)

open Heimdall_net
open Heimdall_config
open Heimdall_control
open Heimdall_twin
open Heimdall_privilege
module B = Heimdall_scenarios.Builder
module Enterprise = Heimdall_scenarios.Enterprise

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string
let ip = Ipv4.of_string

(* ---------------- Command parsing ---------------- *)

let test_command_parse_show () =
  checkb "running-config" true (Command.parse "show running-config" = Command.Show Command.Running_config);
  checkb "route" true (Command.parse "show ip route" = Command.Show Command.Ip_route);
  checkb "ospf" true
    (Command.parse "show ip ospf neighbors" = Command.Show Command.Ospf_neighbors)

let test_command_parse_configure () =
  (match Command.parse "configure interface eth0 shutdown" with
  | Command.Configure (Change.Set_interface_enabled { iface = "eth0"; enabled = false }) -> ()
  | _ -> Alcotest.fail "shutdown");
  (match Command.parse "configure access-list A 10 permit tcp any 10.0.0.0/8 eq 80" with
  | Command.Configure (Change.Acl_set_rule { acl = "A"; rule }) ->
      checki "seq" 10 rule.Acl.seq
  | _ -> Alcotest.fail "acl");
  (match Command.parse "configure ip route 0.0.0.0/0 10.0.0.1" with
  | Command.Configure (Change.Add_static_route r) ->
      checkb "default" true (Prefix.equal r.Ast.sr_prefix Prefix.any)
  | _ -> Alcotest.fail "route");
  match Command.parse "configure interface eth1 switchport trunk allowed vlan 10,20" with
  | Command.Configure (Change.Set_switchport { switchport = Some (Ast.Trunk [ 10; 20 ]); _ }) -> ()
  | _ -> Alcotest.fail "trunk"

let test_command_parse_errors () =
  List.iter
    (fun line ->
      match Command.parse_result line with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail ("expected parse error: " ^ line))
    [
      "";
      "frobnicate";
      "show";
      "ping";
      "ping banana";
      "configure";
      "configure interface";
      "configure interface eth0 launch missiles";
      "erase";
    ]

let test_command_action_mapping () =
  checks "ping" "diag.ping" (Command.action_name (Command.parse "ping 1.2.3.4"));
  checks "erase" "system.erase" (Command.action_name (Command.parse "erase startup-config"));
  checks "config" "interface.shutdown"
    (Command.action_name (Command.parse "configure interface eth0 shutdown"));
  checkb "iface scope" true
    (Command.target_iface (Command.parse "configure interface eth0 shutdown") = Some "eth0")

let test_command_roundtrip_to_string () =
  List.iter
    (fun line -> checkb line true (Command.parse_result line |> Result.is_ok))
    [
      "connect r1"; "disconnect"; "show vlan"; "show topology"; "traceroute 10.0.0.1";
      "configure vlan 30 name dmz"; "configure no ip route 0.0.0.0/0 10.0.0.1";
      "configure no access-list A 10"; "configure interface eth0 no access-group in";
      "reload";
    ]

(* ---------------- Slicer ---------------- *)

let test_slicer_strategies () =
  let net = Enterprise.build () in
  let endpoints = [ "h2"; "h3" ] in
  let all = Slicer.slice Slicer.All net ~endpoints in
  let neighbor = Slicer.slice Slicer.Neighbor net ~endpoints in
  let path = Slicer.slice Slicer.Path net ~endpoints in
  let task = Slicer.slice Slicer.Task net ~endpoints in
  checki "all = everything" (List.length (Network.node_names net)) (List.length all);
  checkb "neighbor small" true (List.length neighbor < List.length task);
  checkb "path <= task" true (List.length path <= List.length task);
  checkb "task < all" true (List.length task < List.length all);
  checkb "endpoints in all slices" true
    (List.for_all
       (fun s -> List.mem "h2" s && List.mem "h3" s)
       [ neighbor; path; task ])

let test_slicer_includes_gateways () =
  let net = Enterprise.build () in
  let task = Slicer.slice Slicer.Task net ~endpoints:[ "h1"; "h2" ] in
  (* Both hosts sit on r4's SVI: same-switch ticket must still expose the
     gateway router. *)
  checkb "gateway in slice" true (List.mem "r4" task)

let test_slicer_unknown_endpoints () =
  let net = Enterprise.build () in
  let s = Slicer.slice Slicer.Task net ~endpoints:[ "ghost"; "h1" ] in
  checkb "survives unknown" true (List.mem "h1" s)

let test_slice_network_restricts () =
  let net = Enterprise.build () in
  let twin = Slicer.slice_network Slicer.Task net ~endpoints:[ "h2"; "h3" ] in
  checkb "smaller" true
    (List.length (Network.node_names twin) < List.length (Network.node_names net));
  checkb "valid" true (Result.is_ok (Network.validate twin))

(* ---------------- Twin build & emulation ---------------- *)

let build_twin () =
  let net = Enterprise.build () in
  let em = Twin.build ~production:net ~endpoints:[ "h2"; "h3" ] () in
  (net, em)

let test_twin_scrubbed () =
  let net, em = build_twin () in
  List.iter
    (fun (node, cfg) ->
      checkb (node ^ " scrubbed") true (Redact.is_scrubbed cfg);
      (* No production secret value survives anywhere in the twin. *)
      match Network.config node net with
      | Some prod ->
          checkb (node ^ " no leak") true
            (Redact.leaked_secrets ~production:prod (Printer.render cfg) = [])
      | None -> ())
    (Network.configs (Emulation.network em))

let test_twin_rejects_unscrubbed () =
  let net = Enterprise.build () in
  Alcotest.check_raises "unscrubbed"
    (Invalid_argument "Emulation.create: node h1 carries unscrubbed secrets") (fun () ->
      ignore (Emulation.create (Network.restrict [ "h1" ] net)))

let test_emulation_apply_and_changes () =
  let _, em = build_twin () in
  checki "no changes yet" 0 (List.length (Emulation.changes em));
  (match Emulation.apply em ~node:"r4" (Change.Set_ospf_cost { iface = "eth0"; cost = Some 99 }) with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  let changes = Emulation.changes em in
  checki "one change" 1 (List.length changes);
  checkb "right node" true ((List.hd changes).Change.node = "r4");
  checkb "bad apply reported" true
    (Result.is_error (Emulation.apply em ~node:"r4" (Change.Set_ospf_cost { iface = "zz"; cost = None })))

let test_emulation_dataplane_invalidation () =
  let _, em = build_twin () in
  let before =
    Fib.route_count (Dataplane.fib "h2" (Emulation.dataplane em))
  in
  (match
     Emulation.apply em ~node:"h2" (Change.Set_default_gateway None)
   with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  let after = Fib.route_count (Dataplane.fib "h2" (Emulation.dataplane em)) in
  checki "gateway route gone" (before - 1) after

let test_emulation_erase () =
  let _, em = build_twin () in
  Emulation.erase em ~node:"r4";
  let cfg = Network.config_exn "r4" (Emulation.network em) in
  checkb "no addresses" true (Ast.addresses cfg = []);
  checkb "no acls" true (cfg.Ast.acls = []);
  checkb "interfaces kept" true (cfg.Ast.interfaces <> []);
  checkb "diff shows damage" true (Emulation.changes em <> [])

let test_emulation_ping () =
  let _, em = build_twin () in
  (match Emulation.ping em ~node:"h2" (ip "10.1.10.1") with
  | Some r -> checkb "gateway pingable" true (Heimdall_verify.Trace.is_delivered r)
  | None -> Alcotest.fail "no source address");
  checkb "reload counted" true
    (Emulation.reload em ~node:"r4";
     Emulation.reload_count em = 1)

(* ---------------- Presentation & session ---------------- *)

let full_privilege_session () =
  let _, em = build_twin () in
  Twin.open_session ~privilege:Privilege.allow_all em

let test_presentation_no_secrets () =
  let net, em = build_twin () in
  let session = Twin.open_session ~privilege:Privilege.allow_all em in
  let outputs =
    List.filter_map
      (fun cmd -> Result.to_option (Session.exec session cmd))
      [
        "connect r4";
        "show running-config";
        "show interfaces";
        "show ip route";
        "show access-lists";
        "show ip ospf neighbors";
        "show vlan";
        "show topology";
      ]
  in
  let blob = String.concat "" outputs in
  List.iter
    (fun (_, prod) ->
      checkb "no secret in output" true (Redact.leaked_secrets ~production:prod blob = []))
    (Network.configs net)

let test_session_requires_connect () =
  let session = full_privilege_session () in
  (match Session.exec session "show ip route" with
  | Error Session.Not_connected -> ()
  | _ -> Alcotest.fail "expected Not_connected");
  (match Session.exec session "connect r4" with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Session.error_to_string e));
  checkb "now works" true (Result.is_ok (Session.exec session "show ip route"))

let test_session_unknown_node () =
  let session = full_privilege_session () in
  match Session.exec session "connect mars" with
  | Error (Session.Unknown_node "mars") -> ()
  | _ -> Alcotest.fail "expected Unknown_node"

let test_monitor_denies_out_of_spec () =
  let _, em = build_twin () in
  let privilege =
    Privilege.of_predicates
      [ Privilege.allow ~actions:[ "show.*"; "diag.*" ] ~nodes:[ "r4"; "h2" ] () ]
  in
  let session = Twin.open_session ~privilege em in
  ignore (Session.exec session "connect r4");
  (match Session.exec session "configure interface eth0 shutdown" with
  | Error (Session.Denied_request { action = "interface.shutdown"; node = "r4" }) -> ()
  | _ -> Alcotest.fail "expected denial");
  checkb "show ok" true (Result.is_ok (Session.exec session "show ip route"));
  (* Denials are logged. *)
  checki "one denial" 1 (Session.denied_count session);
  let denied =
    List.filter (fun (e : Session.log_entry) -> e.verdict = Session.Denied) (Session.log session)
  in
  checks "logged action" "interface.shutdown" (List.hd denied).Session.action

let test_monitor_logs_everything () =
  let session = full_privilege_session () in
  ignore (Session.exec_many session [ "connect r4"; "show vlan"; "ping 10.1.10.1"; "bogus" ]);
  checki "four entries" 4 (Session.command_count session);
  let log = Session.log session in
  checkb "ordered seq" true
    (List.mapi (fun i (e : Session.log_entry) -> e.seq = i + 1) log |> List.for_all Fun.id)

let test_monitor_malformed_logged_denied () =
  let session = full_privilege_session () in
  (match Session.exec session "launch the missiles" with
  | Error (Session.Bad_command _) -> ()
  | _ -> Alcotest.fail "expected Bad_command");
  checki "denied" 1 (Session.denied_count session)

let test_exec_failed_surfaces () =
  let session = full_privilege_session () in
  ignore (Session.exec session "connect r4");
  match Session.exec session "configure no access-list GHOST" with
  | Error (Session.Exec_failed _) -> ()
  | _ -> Alcotest.fail "expected Exec_failed"

let test_twin_edits_do_not_touch_production () =
  let net, em = build_twin () in
  let session = Twin.open_session ~privilege:Privilege.allow_all em in
  ignore (Session.exec_many session [ "connect r4"; "configure interface eth0 shutdown" ]);
  (* The production network object is untouched. *)
  let prod_iface = Option.get (Ast.find_interface "eth0" (Network.config_exn "r4" net)) in
  checkb "production untouched" true prod_iface.Ast.enabled;
  let twin_iface =
    Option.get (Ast.find_interface "eth0" (Network.config_exn "r4" (Emulation.network em)))
  in
  checkb "twin changed" false twin_iface.Ast.enabled

let test_env_stubs () =
  let net = Enterprise.build () in
  (* A deliberately tiny slice: both endpoints behind r4; everything else
     is environment. *)
  let em = Twin.build ~env_stubs:true ~production:net ~endpoints:[ "h1"; "h2" ] () in
  let twin_net = Emulation.network em in
  let names = Network.node_names twin_net in
  let stubs = List.filter (fun n -> String.length n > 4 && String.sub n 0 4 = "env-") names in
  checkb "stubs exist" true (stubs <> []);
  (* Boundary next hops answer pings from inside the slice: r4's uplink
     peers (r2, r6, r5) are stubbed, so their transit addresses are alive. *)
  let session = Twin.open_session ~privilege:Privilege.allow_all em in
  ignore (Session.exec session "connect r4");
  let r4 = Network.config_exn "r4" twin_net in
  let uplink_peer_alive =
    List.exists
      (fun (i : Ast.interface) ->
        match i.addr with
        | Some a when i.enabled && i.switchport = None ->
            (* The peer holds the other address of the /30. *)
            let subnet = Ifaddr.subnet a in
            let peer_addr =
              if Ipv4.equal (Ifaddr.address a) (Prefix.host subnet 1) then
                Prefix.host subnet 2
              else Prefix.host subnet 1
            in
            (match Session.exec session ("ping " ^ Ipv4.to_string peer_addr) with
            | Ok out ->
                String.length out > 0
                && (let ok = ref false in
                    String.iteri
                      (fun idx _ ->
                        if idx + 3 <= String.length out && String.sub out idx 3 = "5/5"
                        then ok := true)
                      out;
                    !ok)
            | Error _ -> false)
        | _ -> false)
      r4.interfaces
  in
  checkb "boundary next hop pingable" true uplink_peer_alive;
  (* Stubs carry no secrets and no onward links. *)
  List.iter
    (fun stub ->
      let cfg = Network.config_exn stub twin_net in
      checkb (stub ^ " secretless") true (cfg.Ast.secrets = []);
      checkb (stub ^ " leafy") true
        (Heimdall_net.Topology.degree stub (Network.topology twin_net) >= 1))
    stubs;
  (* And the real outside devices are still absent. *)
  checkb "r8 hidden" true (not (List.mem "r8" names))

let test_env_stubs_off_by_default () =
  let net = Enterprise.build () in
  let em = Twin.build ~production:net ~endpoints:[ "h1"; "h2" ] () in
  checkb "no stubs" true
    (List.for_all
       (fun n -> not (String.length n > 4 && String.sub n 0 4 = "env-"))
       (Network.node_names (Emulation.network em)))

let suite =
  [
    Alcotest.test_case "command parse show" `Quick test_command_parse_show;
    Alcotest.test_case "command parse configure" `Quick test_command_parse_configure;
    Alcotest.test_case "command parse errors" `Quick test_command_parse_errors;
    Alcotest.test_case "command action mapping" `Quick test_command_action_mapping;
    Alcotest.test_case "command accepted forms" `Quick test_command_roundtrip_to_string;
    Alcotest.test_case "slicer strategies ordering" `Quick test_slicer_strategies;
    Alcotest.test_case "slicer includes gateways" `Quick test_slicer_includes_gateways;
    Alcotest.test_case "slicer unknown endpoints" `Quick test_slicer_unknown_endpoints;
    Alcotest.test_case "slice_network restricts" `Quick test_slice_network_restricts;
    Alcotest.test_case "twin configs scrubbed" `Quick test_twin_scrubbed;
    Alcotest.test_case "twin rejects unscrubbed" `Quick test_twin_rejects_unscrubbed;
    Alcotest.test_case "emulation apply/changes" `Quick test_emulation_apply_and_changes;
    Alcotest.test_case "emulation dataplane invalidation" `Quick
      test_emulation_dataplane_invalidation;
    Alcotest.test_case "emulation erase" `Quick test_emulation_erase;
    Alcotest.test_case "emulation ping/reload" `Quick test_emulation_ping;
    Alcotest.test_case "presentation leaks no secrets" `Quick test_presentation_no_secrets;
    Alcotest.test_case "session requires connect" `Quick test_session_requires_connect;
    Alcotest.test_case "session unknown node" `Quick test_session_unknown_node;
    Alcotest.test_case "monitor denies out of spec" `Quick test_monitor_denies_out_of_spec;
    Alcotest.test_case "monitor logs everything" `Quick test_monitor_logs_everything;
    Alcotest.test_case "monitor logs malformed as denied" `Quick
      test_monitor_malformed_logged_denied;
    Alcotest.test_case "exec failure surfaces" `Quick test_exec_failed_surfaces;
    Alcotest.test_case "twin edits isolated from production" `Quick
      test_twin_edits_do_not_touch_production;
    Alcotest.test_case "env stubs keep boundary alive" `Quick test_env_stubs;
    Alcotest.test_case "env stubs off by default" `Quick test_env_stubs_off_by_default;
  ]
