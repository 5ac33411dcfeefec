(* Tests for Heimdall_lint: the rule registry, the three analyzer
   families (config, ACL, privilege), engine determinism, and the
   seeded-defect end-to-end path.  Every rule code is exercised with a
   triggering fixture and a clean counterpart. *)

open Heimdall_net
open Heimdall_config
open Heimdall_control
open Heimdall_privilege
open Heimdall_lint
module Experiments = Heimdall_scenarios.Experiments
module B = Heimdall_scenarios.Builder

(* The one verification context shared by this file's tests. *)
let engine = Heimdall_verify.Engine.create ~domains:1 ()

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string
let ia = Ifaddr.of_string
let ip = Ipv4.of_string
let pfx = Prefix.of_string

let with_code c diags = List.filter (fun (d : Diagnostic.t) -> d.code = c) diags
let codes diags = List.sort_uniq String.compare (List.map (fun (d : Diagnostic.t) -> d.code) diags)

let one_diag label code diags =
  match with_code code diags with
  | [ d ] -> d
  | l -> Alcotest.failf "%s: expected exactly one %s, got %d" label code (List.length l)

(* A single-router network around one config, for per-device checks. *)
let solo cfg =
  Network.make (Topology.add_node cfg.Ast.hostname Topology.Router Topology.empty)
    [ (cfg.Ast.hostname, cfg) ]

(* ---------------- registry ---------------- *)

let test_registry () =
  checki "rule count" 35 (List.length Lint.rules);
  let cs = List.map (fun (r : Lint.rule) -> r.code) Lint.rules in
  checki "codes unique" 35 (List.length (List.sort_uniq String.compare cs));
  List.iter
    (fun (fam, label) ->
      checkb (label ^ " family populated") true
        (List.exists (fun (r : Lint.rule) -> r.family = fam) Lint.rules))
    [ (Lint.Config, "config"); (Lint.Acl, "acl"); (Lint.Net, "net");
      (Lint.Privilege, "privilege"); (Lint.Plan, "plan"); (Lint.Pol, "pol") ];
  checkb "lookup hit" true (Lint.rule "ACL001" <> None);
  checkb "lookup miss" true (Lint.rule "XXX999" = None)

(* ---------------- diagnostics ---------------- *)

let test_diagnostic_json_roundtrip () =
  let d =
    Diagnostic.v ~device:"r1" ~obj:"eth0" ~line:20 ~code:"CFG003" Diagnostic.Error
      "interface eth0 references undefined access-list NOPE"
  in
  checkb "full roundtrip" true (Diagnostic.of_json (Diagnostic.to_json d) = Some d);
  let bare = Diagnostic.v ~code:"PRV003" Diagnostic.Warning "over-broad" in
  checkb "bare roundtrip" true (Diagnostic.of_json (Diagnostic.to_json bare) = Some bare)

let test_filter_and_summary () =
  let e = Diagnostic.v ~code:"CFG001" Diagnostic.Error "e" in
  let w = Diagnostic.v ~code:"CFG004" Diagnostic.Warning "w" in
  let ds = [ e; w ] in
  checki "filter error" 1 (List.length (Lint.filter ~min_severity:Diagnostic.Error ds));
  checki "filter warning" 2 (List.length (Lint.filter ~min_severity:Diagnostic.Warning ds));
  checkb "has_errors" true (Lint.has_errors ds);
  checkb "no errors" false (Lint.has_errors [ w ]);
  checks "summary" "2 findings (1 error, 1 warning)" (Lint.summary ds);
  checks "clean" "clean" (Lint.summary [])

(* ---------------- ACL family ---------------- *)

let test_acl001_opposite_shadow () =
  let acl =
    Acl.make "BLOCK"
      [
        Acl.rule ~seq:10 Acl.Deny (pfx "10.0.0.0/8") Prefix.any;
        Acl.rule ~seq:20 Acl.Permit (pfx "10.1.0.0/16") Prefix.any;
      ]
  in
  let d = one_diag "shadowed" "ACL001" (Lint.check_acl ~device:"r1" acl) in
  checkb "error" true (d.severity = Diagnostic.Error);
  checkb "device" true (d.device = Some "r1");
  checkb "object" true (d.obj = Some "BLOCK");
  checkb "line is seq" true (d.line = Some 20)

let test_acl002_redundant () =
  let acl =
    Acl.make "DUP"
      [
        Acl.rule ~seq:10 Acl.Permit (pfx "10.0.0.0/8") Prefix.any;
        Acl.rule ~seq:20 Acl.Permit (pfx "10.1.0.0/16") Prefix.any;
      ]
  in
  let d = one_diag "redundant" "ACL002" (Lint.check_acl ~device:"r1" acl) in
  checkb "warning" true (d.severity = Diagnostic.Warning);
  checkb "line" true (d.line = Some 20)

let test_acl003_terminal_permit_any () =
  let open_acl = Acl.make "OPEN" [ Acl.rule ~seq:10 Acl.Permit Prefix.any Prefix.any ] in
  let d = one_diag "terminal" "ACL003" (Lint.check_acl ~device:"fw1" open_acl) in
  checkb "warning" true (d.severity = Diagnostic.Warning);
  checkb "line" true (d.line = Some 10)

let test_acl_clean () =
  (* Disjoint prefixes, specific terminal rule: nothing to report. *)
  let acl =
    Acl.make "OK"
      [
        Acl.rule ~seq:10 Acl.Permit (pfx "10.1.0.0/16") (pfx "10.2.0.0/16");
        Acl.rule ~seq:20 Acl.Deny (pfx "10.3.0.0/16") Prefix.any;
      ]
  in
  checki "clean" 0 (List.length (Lint.check_acl ~device:"r1" acl));
  (* Terminal deny-any-any is the explicit default: also clean. *)
  let closed = Acl.make "CLOSED" [ Acl.rule ~seq:10 Acl.Deny Prefix.any Prefix.any ] in
  checki "deny any clean" 0 (List.length (Lint.check_acl ~device:"r1" closed))

(* ---------------- config family: per-device ---------------- *)

let test_cfg003_undefined_acl_ref () =
  let cfg =
    Ast.make
      ~interfaces:[ Ast.interface ~addr:(ia "10.0.0.1/24") ~acl_in:"NOPE" "eth0" ]
      "r1"
  in
  let ds = Config_lint.check_device (solo cfg) "r1" in
  let d = one_diag "undefined ref" "CFG003" ds in
  checkb "error" true (d.severity = Diagnostic.Error);
  checkb "object" true (d.obj = Some "eth0");
  (* Define the list: finding disappears (the binding also clears CFG004). *)
  let ok =
    Ast.update_acl
      (Acl.make "NOPE" [ Acl.rule ~seq:10 Acl.Deny (pfx "10.9.0.0/16") Prefix.any ])
      cfg
  in
  checki "clean" 0 (List.length (Config_lint.check_device (solo ok) "r1"))

let test_cfg004_unbound_acl () =
  let cfg =
    Ast.make
      ~interfaces:[ Ast.interface ~addr:(ia "10.0.0.1/24") "eth0" ]
      ~acls:[ Acl.make "LONELY" [ Acl.rule ~seq:10 Acl.Deny (pfx "10.9.0.0/16") Prefix.any ] ]
      "r1"
  in
  let d = one_diag "unbound" "CFG004" (Config_lint.check_device (solo cfg) "r1") in
  checkb "warning" true (d.severity = Diagnostic.Warning);
  checkb "object" true (d.obj = Some "LONELY")

let test_cfg005_undeclared_vlan () =
  let cfg =
    Ast.make
      ~interfaces:
        [
          Ast.interface ~switchport:(Ast.Access 30) "eth0";
          Ast.interface ~switchport:(Ast.Trunk [ 10; 30 ]) "eth1";
        ]
      ~vlans:[ (10, "users") ]
      "sw1"
  in
  let ds = Config_lint.check_device (solo cfg) "sw1" in
  (* Access port on 30 and trunk member 30; vlan 10 is declared. *)
  checki "two findings" 2 (List.length (with_code "CFG005" ds));
  let declared = Ast.make ~interfaces:cfg.Ast.interfaces ~vlans:[ (10, "users"); (30, "voice") ] "sw1" in
  checki "clean" 0 (List.length (Config_lint.check_device (solo declared) "sw1"))

let test_cfg006_off_subnet_next_hop () =
  let route nh = { Ast.sr_prefix = pfx "10.5.0.0/16"; sr_next_hop = nh; sr_distance = 1 } in
  let with_route nh =
    Ast.make
      ~interfaces:[ Ast.interface ~addr:(ia "10.0.0.1/24") "eth0" ]
      ~static_routes:[ route nh ] "r1"
  in
  let d =
    one_diag "blackhole" "CFG006"
      (Config_lint.check_device (solo (with_route (ip "10.99.0.1"))) "r1")
  in
  checkb "error" true (d.severity = Diagnostic.Error);
  checki "clean" 0
    (List.length (Config_lint.check_device (solo (with_route (ip "10.0.0.2"))) "r1"));
  (* A shutdown interface no longer provides the subnet. *)
  let shut =
    Ast.make
      ~interfaces:[ Ast.interface ~addr:(ia "10.0.0.1/24") ~enabled:false "eth0" ]
      ~static_routes:[ route (ip "10.0.0.2") ] "r1"
  in
  checki "shutdown subnet" 1
    (List.length (with_code "CFG006" (Config_lint.check_device (solo shut) "r1")));
  (* Host default gateway follows the same rule. *)
  let host =
    Ast.make
      ~interfaces:[ Ast.interface ~addr:(ia "10.0.0.7/24") "eth0" ]
      ~default_gateway:(ip "10.4.0.1") "h1"
  in
  let d =
    one_diag "gateway" "CFG006"
      (Config_lint.check_device (solo host) "h1")
  in
  checkb "gateway object" true (d.obj = Some "default-gateway")

let test_cfg008_acl_on_shutdown () =
  let cfg =
    Ast.make
      ~interfaces:
        [ Ast.interface ~addr:(ia "10.0.0.1/24") ~acl_in:"GUARD" ~enabled:false "eth0" ]
      ~acls:[ Acl.make "GUARD" [ Acl.rule ~seq:10 Acl.Deny (pfx "10.9.0.0/16") Prefix.any ] ]
      "r1"
  in
  let ds = Config_lint.check_device (solo cfg) "r1" in
  let d = one_diag "shutdown" "CFG008" ds in
  checkb "warning" true (d.severity = Diagnostic.Warning);
  (* Bound is bound: no CFG004 alongside. *)
  checki "no cfg004" 0 (List.length (with_code "CFG004" ds))

(* ---------------- config family: cross-device ---------------- *)

(* Two routers on one cable, same subnet, no OSPF. *)
let wire () =
  let b = B.create () in
  B.router b "r1";
  B.router b "r2";
  ignore (B.p2p b "r1" "r2");
  B.build b

let rewire_iface net node f =
  let cfg = Network.config_exn node net in
  let i = Option.get (Ast.find_interface "eth0" cfg) in
  Network.with_config node (Ast.update_interface (f i) cfg) net

let test_cfg001_duplicate_address () =
  let net = wire () in
  let addr = Ast.interface_addr (Network.config_exn "r1" net) "eth0" in
  let dup = rewire_iface net "r2" (fun i -> { i with Ast.addr = addr }) in
  let ds = Config_lint.duplicate_addresses dup in
  let d = one_diag "duplicate" "CFG001" ds in
  checkb "error" true (d.severity = Diagnostic.Error);
  checkb "first owner" true (d.device = Some "r1");
  checkb "both named" true
    (let m = d.message in
     let has s =
       let rec go i =
         i + String.length s <= String.length m
         && (String.sub m i (String.length s) = s || go (i + 1))
       in
       go 0
     in
     has "r1/eth0" && has "r2/eth0");
  checki "clean" 0 (List.length (Config_lint.duplicate_addresses net));
  (* A shutdown duplicate does not count. *)
  let shut = rewire_iface dup "r2" (fun i -> { i with Ast.enabled = false }) in
  checki "shutdown ignored" 0 (List.length (Config_lint.duplicate_addresses shut))

let test_cfg002_link_subnet_mismatch () =
  let net = wire () in
  let bad =
    rewire_iface net "r1" (fun i -> { i with Ast.addr = Some (ia "192.168.50.1/24") })
  in
  let d = one_diag "mismatch" "CFG002" (Config_lint.check_links bad) in
  checkb "error" true (d.severity = Diagnostic.Error);
  checki "clean" 0 (List.length (Config_lint.check_links net))

let test_cfg007_ospf_area_mismatch () =
  let b = B.create () in
  B.router b "r1";
  B.router b "r2";
  ignore (B.p2p ~area:0 b "r1" "r2");
  let net = B.build b in
  checki "clean" 0 (List.length (with_code "CFG007" (Config_lint.check_links net)));
  (* Per-interface override on one end breaks the adjacency. *)
  let bad = rewire_iface net "r2" (fun i -> { i with Ast.ospf_area = Some 1 }) in
  let d = one_diag "mismatch" "CFG007" (Config_lint.check_links bad) in
  checkb "error" true (d.severity = Diagnostic.Error);
  (* A non-OSPF link (no covering network statement) is not checked. *)
  checki "non-ospf link quiet" 0 (List.length (Config_lint.check_links (wire ())))

let test_sec001_twin_exposure () =
  let cfg =
    Ast.make
      ~interfaces:[ Ast.interface ~addr:(ia "10.0.0.1/24") "eth0" ]
      ~secrets:[ Ast.Enable_secret "hunter2"; Ast.Snmp_community "public" ]
      "r1"
  in
  let net = solo cfg in
  let d = one_diag "exposed" "SEC001" (Config_lint.twin_exposure net) in
  checkb "error" true (d.severity = Diagnostic.Error);
  checkb "device" true (d.device = Some "r1");
  let scrubbed = Network.with_config "r1" (Redact.scrub cfg) net in
  checki "scrubbed clean" 0 (List.length (Config_lint.twin_exposure scrubbed));
  (* check_network only runs SEC001 when asked. *)
  checki "off by default" 0 (List.length (with_code "SEC001" (Lint.check_network ~engine net)));
  checki "on when twin_exposed" 1
    (List.length (with_code "SEC001" (Lint.check_network ~engine ~twin_exposed:true net)))

(* ---------------- privilege family ---------------- *)

let test_prv001_dead_deny () =
  let spec = Dsl.parse "allow acl.* on r1;\ndeny acl.rule on r1;\n" in
  let d = one_diag "dead deny" "PRV001" (Lint.check_privilege spec) in
  checkb "error (opposite effect)" true (d.severity = Diagnostic.Error);
  checkb "statement index" true (d.line = Some 2)

let test_prv001_redundant_allow () =
  let spec = Dsl.parse "allow show.* on *;\nallow show.config on r1;\n" in
  let d = one_diag "redundant" "PRV001" (Lint.check_privilege spec) in
  checkb "warning (same effect)" true (d.severity = Diagnostic.Warning)

let test_prv001_clean () =
  (* The narrow deny first: every statement reachable. *)
  let spec = Dsl.parse "deny acl.rule on r1;\nallow acl.* on r1;\n" in
  checki "clean" 0 (List.length (with_code "PRV001" (Lint.check_privilege spec)));
  (* Iface-scoped statement is not subsumed by a device-scoped deny the
     other way around: outer None covers Some, so this IS dead. *)
  let dead = Dsl.parse "allow acl.rule on r1;\ndeny acl.rule on r1:eth0;\n" in
  checki "iface under device" 1
    (List.length (with_code "PRV001" (Lint.check_privilege dead)));
  (* ...but a device-wide grant after an iface-scoped one is reachable. *)
  let alive = Dsl.parse "allow acl.rule on r1:eth0;\nallow acl.rule on r1;\n" in
  checki "device after iface" 0
    (List.length (with_code "PRV001" (Lint.check_privilege alive)))

let test_prv002_unknown_resource () =
  let net = wire () in
  let spec = Dsl.parse "allow show.* on r9;\n" in
  let d = one_diag "unknown node" "PRV002" (Lint.check_privilege ~network:net spec) in
  checkb "warning" true (d.severity = Diagnostic.Warning);
  let spec_iface = Dsl.parse "allow acl.rule on r1:vlan99;\n" in
  checki "unknown iface" 1
    (List.length (with_code "PRV002" (Lint.check_privilege ~network:net spec_iface)));
  let ok = Dsl.parse "allow show.* on r1;\nallow acl.rule on r*:eth0;\n" in
  checki "clean" 0 (List.length (with_code "PRV002" (Lint.check_privilege ~network:net ok)));
  (* Without a network the check is disabled. *)
  checki "no network" 0 (List.length (with_code "PRV002" (Lint.check_privilege spec)))

let test_prv003_over_broad () =
  let spec = Dsl.parse "allow * on *;\n" in
  let d = one_diag "over-broad" "PRV003" (Lint.check_privilege spec) in
  checkb "warning" true (d.severity = Diagnostic.Warning);
  checki "allow_all flagged" 1
    (List.length (with_code "PRV003" (Lint.check_privilege Privilege.allow_all)));
  (* A read-only wildcard grant is fine. *)
  let ok = Dsl.parse "allow show.*, diag.* on *;\n" in
  checki "clean" 0 (List.length (with_code "PRV003" (Lint.check_privilege ok)))

let test_check_privilege_label () =
  let spec = Dsl.parse "allow * on *;\n" in
  let d = one_diag "labelled" "PRV003" (Lint.check_privilege ~label:"ticket:vlan" spec) in
  checkb "label as device" true (d.device = Some "ticket:vlan")

(* ---------------- whole networks, determinism ---------------- *)

let test_evaluation_networks_lint_clean () =
  List.iter
    (fun name ->
      let sc = Option.get (Experiments.scenario_of_name name) in
      let ds = Lint.check_network ~engine sc.Experiments.net in
      checkb (name ^ " no errors") false (Lint.has_errors ds);
      (* Exactly the one deliberate default-permit warning each. *)
      checki (name ^ " acl003") 1 (List.length (with_code "ACL003" ds));
      checki (name ^ " nothing else") 1 (List.length ds))
    Experiments.scenario_names

let test_engine_determinism () =
  let sc = Option.get (Experiments.scenario_of_name "enterprise") in
  (* Seed a few defects so the report is non-trivial. *)
  let cfg = Network.config_exn "r8" sc.Experiments.net in
  let acl = Option.get (Ast.find_acl "SRV_PROT" cfg) in
  let acl = Acl.add_rule (Acl.rule ~seq:30 Acl.Deny (pfx "10.9.9.0/24") Prefix.any) acl in
  let net = Network.with_config "r8" (Ast.update_acl acl cfg) sc.Experiments.net in
  let sequential = Lint.check_network ~engine net in
  let engine = Heimdall_verify.Engine.create ~domains:3 () in
  let parallel = Lint.check_network ~engine net in
  checkb "findings identical" true (List.equal Diagnostic.equal sequential parallel);
  checks "json identical"
    (Heimdall_json.Json.to_string (Lint.to_json sequential))
    (Heimdall_json.Json.to_string (Lint.to_json parallel))

let test_seeded_shadowed_rule_detected () =
  let sc = Option.get (Experiments.scenario_of_name "enterprise") in
  let cfg = Network.config_exn "r8" sc.Experiments.net in
  let acl = Option.get (Ast.find_acl "SRV_PROT" cfg) in
  let acl = Acl.add_rule (Acl.rule ~seq:30 Acl.Deny (pfx "10.9.9.0/24") Prefix.any) acl in
  let net = Network.with_config "r8" (Ast.update_acl acl cfg) sc.Experiments.net in
  let ds = Lint.check_network ~engine net in
  checkb "error raised" true (Lint.has_errors ds);
  let d = one_diag "seeded" "ACL001" ds in
  checkb "device" true (d.device = Some "r8");
  checkb "object" true (d.obj = Some "SRV_PROT");
  checkb "line" true (d.line = Some 30);
  (* The rule no longer terminal-permits, so ACL003 moves out of SRV_PROT
     — the only remaining finding set is the seeded error. *)
  checki "error count" 1 (Lint.count Diagnostic.Error ds);
  checkb "all known codes" true
    (List.for_all (fun c -> Lint.rule c <> None) (codes ds))

let suite =
  [
    Alcotest.test_case "registry" `Quick test_registry;
    Alcotest.test_case "diagnostic json roundtrip" `Quick test_diagnostic_json_roundtrip;
    Alcotest.test_case "filter and summary" `Quick test_filter_and_summary;
    Alcotest.test_case "ACL001 opposite shadow" `Quick test_acl001_opposite_shadow;
    Alcotest.test_case "ACL002 redundant" `Quick test_acl002_redundant;
    Alcotest.test_case "ACL003 terminal permit any" `Quick test_acl003_terminal_permit_any;
    Alcotest.test_case "ACL clean" `Quick test_acl_clean;
    Alcotest.test_case "CFG003 undefined acl ref" `Quick test_cfg003_undefined_acl_ref;
    Alcotest.test_case "CFG004 unbound acl" `Quick test_cfg004_unbound_acl;
    Alcotest.test_case "CFG005 undeclared vlan" `Quick test_cfg005_undeclared_vlan;
    Alcotest.test_case "CFG006 off-subnet next hop" `Quick test_cfg006_off_subnet_next_hop;
    Alcotest.test_case "CFG008 acl on shutdown" `Quick test_cfg008_acl_on_shutdown;
    Alcotest.test_case "CFG001 duplicate address" `Quick test_cfg001_duplicate_address;
    Alcotest.test_case "CFG002 link subnet mismatch" `Quick test_cfg002_link_subnet_mismatch;
    Alcotest.test_case "CFG007 ospf area mismatch" `Quick test_cfg007_ospf_area_mismatch;
    Alcotest.test_case "SEC001 twin exposure" `Quick test_sec001_twin_exposure;
    Alcotest.test_case "PRV001 dead deny" `Quick test_prv001_dead_deny;
    Alcotest.test_case "PRV001 redundant allow" `Quick test_prv001_redundant_allow;
    Alcotest.test_case "PRV001 reachable clean" `Quick test_prv001_clean;
    Alcotest.test_case "PRV002 unknown resource" `Quick test_prv002_unknown_resource;
    Alcotest.test_case "PRV003 over-broad" `Quick test_prv003_over_broad;
    Alcotest.test_case "check_privilege label" `Quick test_check_privilege_label;
    Alcotest.test_case "evaluation networks lint clean" `Quick
      test_evaluation_networks_lint_clean;
    Alcotest.test_case "engine determinism" `Quick test_engine_determinism;
    Alcotest.test_case "seeded shadowed rule" `Quick test_seeded_shadowed_rule_detected;
  ]
