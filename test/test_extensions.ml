(* Tests for the paper's §7 emergency mode and for the network loader. *)

open Heimdall_net
open Heimdall_control
open Heimdall_privilege
open Heimdall_msp
module Enterprise = Heimdall_scenarios.Enterprise

(* The one verification context shared by this file's tests. *)
let engine = Heimdall_verify.Engine.create ~domains:1 ()

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let ip = Ipv4.of_string

let fixture () =
  let net = Enterprise.build () in
  (net, Enterprise.policies net)

(* ---------------- Emergency mode ---------------- *)

let emergency_privilege =
  Privilege.of_predicates
    [
      Privilege.allow ~actions:[ "show.*"; "diag.*" ] ~nodes:[ "*" ] ();
      Privilege.allow
        ~actions:[ "interface.up"; "interface.shutdown"; "route.static"; "ospf.cost" ]
        ~nodes:[ "r*" ] ();
    ]

let open_emergency () =
  let net, policies = fixture () in
  ( net,
    policies,
    Emergency.open_session ~engine ~reason:"core outage, twin unavailable" ~production:net
      ~policies ~privilege:emergency_privilege () )

let test_emergency_reads_production () =
  let _, _, s = open_emergency () in
  (match Emergency.exec s "connect r1" with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Emergency.refusal_to_string e));
  match Emergency.exec s "show ip route" with
  | Ok out -> checkb "live state" true (String.length out > 0)
  | Error e -> Alcotest.fail (Emergency.refusal_to_string e)

let test_emergency_applies_safe_change () =
  let net, _, s = open_emergency () in
  ignore (Emergency.exec s "connect r4");
  (match Emergency.exec s "configure interface eth0 ospf cost 42" with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Emergency.refusal_to_string e));
  checki "one applied" 1 (List.length (Emergency.applied s));
  (* Production (the session's view) reflects the change... *)
  let cfg = Network.config_exn "r4" (Emergency.production s) in
  checkb "applied" true
    ((Option.get (Heimdall_config.Ast.find_interface "eth0" cfg)).Heimdall_config.Ast.ospf_cost
    = Some 42);
  (* ...while the caller's original network value is untouched. *)
  let orig = Network.config_exn "r4" net in
  checkb "original immutable" true
    ((Option.get (Heimdall_config.Ast.find_interface "eth0" orig)).Heimdall_config.Ast.ospf_cost
    = None)

let test_emergency_refuses_policy_breaking_change () =
  let _, _, s = open_emergency () in
  ignore (Emergency.exec s "connect r4");
  (* Shutting the office SVI would break every S1 policy. *)
  match Emergency.exec s "configure interface vlan10 shutdown" with
  | Error (Emergency.Would_violate reasons) -> checkb "reasons" true (reasons <> [])
  | Ok _ -> Alcotest.fail "policy-breaking change applied!"
  | Error e -> Alcotest.fail (Emergency.refusal_to_string e)

let test_emergency_denies_out_of_spec () =
  let _, _, s = open_emergency () in
  ignore (Emergency.exec s "connect r4");
  (match Emergency.exec s "configure access-list X 10 permit ip any any" with
  | Error (Emergency.Denied { action = "acl.rule"; _ }) -> ()
  | _ -> Alcotest.fail "expected denial");
  (* Destructive commands are always refused, even under allow-all. *)
  let net, policies = fixture () in
  let s2 =
    Emergency.open_session ~engine ~reason:"r" ~production:net ~policies
      ~privilege:Privilege.allow_all ()
  in
  ignore (Emergency.exec s2 "connect r4");
  (match Emergency.exec s2 "erase startup-config" with
  | Error (Emergency.Denied { action = "system.erase"; _ }) -> ()
  | _ -> Alcotest.fail "erase must be refused in emergency mode");
  match Emergency.exec s2 "reload" with
  | Error (Emergency.Denied { action = "system.reboot"; _ }) -> ()
  | _ -> Alcotest.fail "reload must be refused in emergency mode"

let test_emergency_audit_complete () =
  let _, _, s = open_emergency () in
  ignore (Emergency.exec s "connect r4");
  ignore (Emergency.exec s "configure interface eth0 ospf cost 42");
  ignore (Emergency.exec s "configure access-list X 10 permit ip any any");
  ignore (Emergency.exec s "gibberish");
  let audit = Emergency.audit s in
  (* open + 4 commands. *)
  checki "records" 5 (Heimdall_enforcer.Audit.length audit);
  checkb "verifies" true (Heimdall_enforcer.Audit.verify audit = Ok ());
  let verdicts =
    List.map (fun (r : Heimdall_enforcer.Audit.record) -> r.verdict)
      (Heimdall_enforcer.Audit.records audit)
  in
  checkb "records denial" true (List.mem "denied" verdicts);
  checkb "records malformed" true (List.mem "malformed" verdicts);
  checkb "records reason" true
    ((List.hd (Heimdall_enforcer.Audit.records audit)).detail
    = "core outage, twin unavailable")

let test_emergency_fixes_real_issue () =
  (* The isp issue resolved in emergency mode (no twin). *)
  let net, policies = fixture () in
  let issue = List.nth (Enterprise.issues net) 2 in
  let broken = issue.Issue.inject net in
  let privilege =
    Privilege.of_predicates
      [
        Privilege.allow ~actions:[ "show.*"; "diag.*" ] ~nodes:[ "*" ] ();
        Privilege.allow
          ~actions:(Priv_gen.repair_actions Ticket.External)
          ~nodes:[ "r1" ] ();
      ]
  in
  let s =
    Emergency.open_session ~engine ~reason:"uplink down" ~production:broken ~policies ~privilege ()
  in
  List.iter (fun cmd -> ignore (Emergency.exec s cmd)) issue.Issue.fix_commands;
  checkb "resolved" true (not (Issue.symptom_present ~engine issue (Emergency.production s)))

(* ---------------- Loader ---------------- *)

let topology_text =
  "# a tiny lab\n\
   node ra router\n\
   node rb router\n\
   node ha host\n\
   link ra:eth0 rb:eth0\n\
   link ra:eth1 ha:eth0\n"

let config_ra =
  "hostname ra\n\
   !\n\
   interface eth0\n\
  \ ip address 10.0.0.1/30\n\
   !\n\
   interface eth1\n\
  \ ip address 10.1.0.1/24\n\
   !\n\
   router ospf\n\
  \ network 10.0.0.0/30 area 0\n\
  \ network 10.1.0.0/24 area 0\n"

let config_rb =
  "hostname rb\n\
   !\n\
   interface eth0\n\
  \ ip address 10.0.0.2/30\n\
   !\n\
   router ospf\n\
  \ network 10.0.0.0/30 area 0\n"

let config_ha = "hostname ha\nip default-gateway 10.1.0.1\n!\ninterface eth0\n ip address 10.1.0.10/24\n"

let test_loader_load () =
  match
    Loader.load ~topology:topology_text
      ~configs:[ ("ra", config_ra); ("rb", config_rb); ("ha", config_ha) ]
  with
  | Ok net ->
      checki "nodes" 3 (List.length (Network.node_names net));
      let dp = Dataplane.compute net in
      checkb "routes computed" true
        (Heimdall_verify.Trace.is_delivered
           (Heimdall_verify.Trace.trace dp (Flow.icmp (ip "10.1.0.10") (ip "10.0.0.2"))))
  | Error e -> Alcotest.fail (Loader.error_to_string e)

let test_loader_errors () =
  let check_err label topology configs =
    match Loader.load ~topology ~configs with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail ("expected error: " ^ label)
  in
  check_err "bad kind" "node x blimp\n" [];
  check_err "bad endpoint" "node a router\nnode b router\nlink a b\n" [];
  check_err "unknown directive" "frob x\n" [];
  check_err "missing config" topology_text [ ("ra", config_ra); ("rb", config_rb) ];
  check_err "config syntax" topology_text
    [ ("ra", "hostname ra\nbogus\n"); ("rb", config_rb); ("ha", config_ha) ];
  check_err "subnet mismatch" topology_text
    [
      ("ra", config_ra);
      ("rb", "hostname rb\n!\ninterface eth0\n ip address 192.168.0.2/30\n");
      ("ha", config_ha);
    ]

let test_loader_error_positions () =
  match Loader.load ~topology:"node a router\nlink a:e b:e\n" ~configs:[] with
  | Error e -> checki "line 2" 2 e.Loader.line
  | Ok _ -> Alcotest.fail "expected error"

let test_loader_roundtrip_via_dir () =
  let net = Enterprise.build () in
  Temp_dir.with_temp_dir "heimdall" @@ fun dir ->
  Loader.save_dir dir net;
  match Loader.load_dir dir with
  | Ok loaded ->
      checkb "same rendering" true
        (List.for_all2
           (fun (n1, c1) (n2, c2) ->
             n1 = n2
             && Heimdall_config.Printer.render c1 = Heimdall_config.Printer.render c2)
           (Network.configs net) (Network.configs loaded));
      checki "same links" 22 (Heimdall_net.Topology.link_count (Network.topology loaded))
  | Error e -> Alcotest.fail (Loader.error_to_string e)

let test_emergency_disconnect_and_reconnect () =
  let _, _, s = open_emergency () in
  ignore (Emergency.exec s "connect r4");
  (match Emergency.exec s "disconnect" with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Emergency.refusal_to_string e));
  (match Emergency.exec s "show ip route" with
  | Error Emergency.No_device -> ()
  | _ -> Alcotest.fail "expected No_device after disconnect");
  (match Emergency.exec s "connect mars" with
  | Error Emergency.No_device -> ()
  | _ -> Alcotest.fail "expected No_device for unknown device");
  checkb "can reconnect" true (Result.is_ok (Emergency.exec s "connect r4"))

let test_emergency_sequential_changes_compose () =
  let _, _, s = open_emergency () in
  ignore (Emergency.exec s "connect r4");
  ignore (Emergency.exec s "configure interface eth0 ospf cost 11");
  ignore (Emergency.exec s "configure interface eth1 ospf cost 12");
  checki "both applied" 2 (List.length (Emergency.applied s));
  let cfg = Network.config_exn "r4" (Emergency.production s) in
  checkb "first persisted" true
    ((Option.get (Heimdall_config.Ast.find_interface "eth0" cfg)).Heimdall_config.Ast.ospf_cost
    = Some 11);
  checkb "second persisted" true
    ((Option.get (Heimdall_config.Ast.find_interface "eth1" cfg)).Heimdall_config.Ast.ospf_cost
    = Some 12)

let test_loader_university_roundtrip () =
  let net = Heimdall_scenarios.University.build () in
  Temp_dir.with_temp_dir "heimdall-uni" @@ fun dir ->
  Loader.save_dir dir net;
  match Loader.load_dir dir with
  | Ok loaded ->
      checki "92 links" 92 (Heimdall_net.Topology.link_count (Network.topology loaded));
      checki "same nodes" (List.length (Network.node_names net))
        (List.length (Network.node_names loaded))
  | Error e -> Alcotest.fail (Loader.error_to_string e)

let test_campaign_university () =
  (* A short campaign on the bigger network also keeps Heimdall clean. *)
  let net = Heimdall_scenarios.University.build () in
  let policies = Heimdall_scenarios.University.policies net in
  let issues = Heimdall_scenarios.University.issues net in
  let tallies =
    Heimdall_scenarios.Campaign.run ~engine ~seed:9 ~tickets:6 ~malicious_pct:50 net policies issues
  in
  let by m =
    List.find (fun (t : Heimdall_scenarios.Campaign.tally) -> t.model = m) tallies
  in
  let h = by Heimdall_scenarios.Campaign.Heimdall_model in
  checki "no leaks" 0 h.secrets_leaked;
  checki "no damage" 0 h.policies_damaged

let suite =
  [
    Alcotest.test_case "emergency reads production" `Quick test_emergency_reads_production;
    Alcotest.test_case "emergency disconnect/reconnect" `Quick
      test_emergency_disconnect_and_reconnect;
    Alcotest.test_case "emergency sequential changes" `Quick
      test_emergency_sequential_changes_compose;
    Alcotest.test_case "loader university roundtrip" `Quick test_loader_university_roundtrip;
    Alcotest.test_case "campaign on university" `Slow test_campaign_university;
    Alcotest.test_case "emergency applies safe change" `Quick
      test_emergency_applies_safe_change;
    Alcotest.test_case "emergency refuses policy-breaking change" `Quick
      test_emergency_refuses_policy_breaking_change;
    Alcotest.test_case "emergency denies out of spec" `Quick test_emergency_denies_out_of_spec;
    Alcotest.test_case "emergency audit complete" `Quick test_emergency_audit_complete;
    Alcotest.test_case "emergency fixes real issue" `Quick test_emergency_fixes_real_issue;
    Alcotest.test_case "loader load" `Quick test_loader_load;
    Alcotest.test_case "loader errors" `Quick test_loader_errors;
    Alcotest.test_case "loader error positions" `Quick test_loader_error_positions;
    Alcotest.test_case "loader dir roundtrip" `Quick test_loader_roundtrip_via_dir;
  ]
