(* Tests for the MSP layer: tickets, privilege generation, the RMM
   baseline, both workflows, and the attack helpers. *)

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

(* ---------------- Priv_gen ---------------- *)

let test_priv_gen_shapes () =
  let net, _ = fixture () in
  let ticket =
    Ticket.make ~id:"T" ~kind:Ticket.Routing ~description:"" ~endpoints:[ "h7"; "h1" ]
  in
  let slice = [ "h7"; "r7"; "r3"; "h1"; "r4" ] in
  let spec = Priv_gen.for_ticket ~network:net ~slice ticket in
  (* Reads allowed everywhere in the slice, including hosts. *)
  checkb "show on host" true (Privilege.allows spec (Privilege.request "show.route" "h7"));
  (* Repairs only on infrastructure. *)
  checkb "repair on router" true (Privilege.allows spec (Privilege.request "ospf.area" "r7"));
  checkb "no repair on host" false (Privilege.allows spec (Privilege.request "ospf.area" "h7"));
  (* Nothing outside the slice. *)
  checkb "outside denied" false (Privilege.allows spec (Privilege.request "show.route" "r8"));
  (* Never destructive or secret actions. *)
  checkb "no erase" false (Privilege.allows spec (Privilege.request "system.erase" "r7"));
  checkb "no secrets" false (Privilege.allows spec (Privilege.request "secret.set" "r7"))

let test_priv_gen_kind_specific () =
  let net, _ = fixture () in
  let slice = [ "r4"; "h2" ] in
  let vlan_spec =
    Priv_gen.for_ticket ~network:net ~slice
      (Ticket.make ~id:"T" ~kind:Ticket.Vlan ~description:"" ~endpoints:[])
  in
  checkb "vlan allows switchport" true
    (Privilege.allows vlan_spec (Privilege.request "vlan.switchport" "r4"));
  checkb "vlan denies acl" false
    (Privilege.allows vlan_spec (Privilege.request "acl.rule" "r4"));
  let routing_spec =
    Priv_gen.for_ticket ~network:net ~slice
      (Ticket.make ~id:"T" ~kind:Ticket.Routing ~description:"" ~endpoints:[])
  in
  checkb "routing allows ospf" true
    (Privilege.allows routing_spec (Privilege.request "ospf.network" "r4"));
  checkb "routing denies vlan" false
    (Privilege.allows routing_spec (Privilege.request "vlan.switchport" "r4"))

(* ---------------- RMM baseline ---------------- *)

let test_rmm_full_access () =
  let net, _ = fixture () in
  let session = Rmm.open_direct_session net in
  ignore (Heimdall_twin.Session.exec session "connect r1");
  (* Direct access sees real secrets — the paper's core criticism. *)
  match Heimdall_twin.Session.exec session "show running-config" with
  | Ok output ->
      let prod = Network.config_exn "r1" net in
      checkb "secrets visible" true
        (Heimdall_config.Redact.leaked_secrets ~production:prod output <> [])
  | Error e -> Alcotest.fail (Heimdall_twin.Session.error_to_string e)

let test_rmm_changes_hit_production_model () =
  let net, _ = fixture () in
  let session = Rmm.open_direct_session net in
  ignore
    (Heimdall_twin.Session.exec_many session
       [ "connect r4"; "configure interface eth0 shutdown" ]);
  let after = Rmm.resulting_network session in
  checkb "changed" false
    (Option.get (Heimdall_config.Ast.find_interface "eth0" (Network.config_exn "r4" after)))
      .Heimdall_config.Ast.enabled

(* ---------------- Issues ---------------- *)

let test_issues_inject_and_probe () =
  let net, _ = fixture () in
  List.iter
    (fun (issue : Issue.t) ->
      let broken = issue.inject net in
      checkb (issue.name ^ " symptom") true (Issue.symptom_present ~engine issue broken);
      checkb (issue.name ^ " root cause exists") true
        (Network.config issue.root_cause broken <> None))
    (Enterprise.issues net)

(* ---------------- Workflows ---------------- *)

let test_workflow_current_resolves () =
  let net, _ = fixture () in
  List.iter
    (fun issue ->
      let run = Workflow.run_current ~engine ~production:net ~issue in
      checkb (issue.Issue.name ^ " resolved") true run.Workflow.resolved;
      checki (issue.Issue.name ^ " steps") 3 (List.length run.Workflow.steps);
      checkb "has time" true (Workflow.total_s run > 0.0))
    (Enterprise.issues net)

let test_workflow_heimdall_resolves () =
  let net, policies = fixture () in
  List.iter
    (fun issue ->
      let run = Workflow.run_heimdall ~engine ~production:net ~policies ~issue () in
      checkb (issue.Issue.name ^ " resolved") true run.Workflow.resolved;
      checki (issue.Issue.name ^ " steps") 6 (List.length run.Workflow.steps);
      checkb "approved" true
        (match run.Workflow.outcome with
        | Some o -> o.Heimdall_enforcer.Enforcer.approved
        | None -> false);
      checkb "no denials" true (run.Workflow.denied = 0))
    (Enterprise.issues net)

let test_workflow_heimdall_slower_but_bounded () =
  let net, policies = fixture () in
  let issue = List.hd (Enterprise.issues net) in
  let current = Workflow.run_current ~engine ~production:net ~issue in
  let heimdall = Workflow.run_heimdall ~engine ~production:net ~policies ~issue () in
  let overhead = Workflow.total_s heimdall -. Workflow.total_s current in
  checkb "has overhead" true (overhead > 0.0);
  checkb "overhead sane (< 120s)" true (overhead < 120.0)

let test_workflow_neighbor_strategy_fails_when_root_cause_hidden () =
  (* Under the Neighbor slice the university OSPF issue's root cause
     (acc5) is not adjacent to either ticket endpoint (dorm1, cs1 - both
     sit behind switches), so the fix must fail. *)
  let net = Heimdall_scenarios.University.build () in
  let policies = Heimdall_scenarios.University.policies net in
  let ospf = List.nth (Heimdall_scenarios.University.issues net) 1 in
  let run =
    Workflow.run_heimdall ~engine ~strategy:Heimdall_twin.Slicer.Neighbor ~production:net ~policies
      ~issue:ospf ()
  in
  checkb "not resolved under Neighbor" false run.Workflow.resolved;
  checkb "denials recorded" true (run.Workflow.denied > 0)

(* ---------------- Attacks ---------------- *)

let test_attack_exfiltration_baseline_leaks () =
  let net, _ = fixture () in
  let session = Rmm.open_direct_session net in
  let result = Attacks.exfiltrate ~production:net ~targets:[ "r1"; "r2" ] session in
  checkb "leaked" true (result.Attacks.leaked <> []);
  checki "no denials" 0 result.Attacks.denied

let test_attack_exfiltration_twin_blocks () =
  let net, _ = fixture () in
  let em = Heimdall_twin.Twin.build ~production:net ~endpoints:[ "h2"; "h3" ] () in
  let ticket =
    Ticket.make ~id:"T" ~kind:Ticket.Vlan ~description:"" ~endpoints:[ "h2"; "h3" ]
  in
  let slice = Heimdall_twin.Twin.slice_nodes ~production:net ~endpoints:[ "h2"; "h3" ] () in
  let privilege = Priv_gen.for_ticket ~network:net ~slice ticket in
  let session = Heimdall_twin.Twin.open_session ~privilege em in
  let result =
    Attacks.exfiltrate ~production:net ~targets:(Network.node_names net) session
  in
  checkb "nothing leaked" true (result.Attacks.leaked = []);
  checkb "denials" true (result.Attacks.denied > 0)

let test_attack_policy_damage () =
  let net, policies = fixture () in
  checki "no damage identical" 0 (Attacks.policy_damage ~engine ~policies ~before:net ~after:net);
  let broken =
    Result.get_ok
      (Network.apply_changes
         [
           Heimdall_config.Change.v "r4"
             (Heimdall_config.Change.Set_interface_enabled { iface = "vlan10"; enabled = false });
         ]
         net)
  in
  checkb "damage measured" true (Attacks.policy_damage ~engine ~policies ~before:net ~after:broken > 0)

let test_attack_command_builders () =
  let cmds =
    Attacks.malicious_acl_commands ~acl:"A" ~seq:5 ~src:(Prefix.of_string "10.0.0.0/8")
      ~dst:(Prefix.of_string "10.1.0.0/16") ~node:"r8"
  in
  checki "two commands" 2 (List.length cmds);
  List.iter
    (fun c -> checkb c true (Result.is_ok (Heimdall_twin.Command.parse_result c)))
    (cmds @ Attacks.erase_gateway_commands ~gateway:"r1")

(* ---------------- Ticket ---------------- *)

let test_ticket_to_string () =
  let t =
    Ticket.make ~id:"X-1" ~kind:Ticket.Vlan ~description:"broken" ~endpoints:[ "a"; "b" ]
  in
  let s = Ticket.to_string t in
  checkb "mentions id" true (String.length s > 0 && String.sub s 0 5 = "[X-1]");
  ignore (ip "1.2.3.4")

let suite =
  [
    Alcotest.test_case "priv_gen shapes" `Quick test_priv_gen_shapes;
    Alcotest.test_case "priv_gen kind specific" `Quick test_priv_gen_kind_specific;
    Alcotest.test_case "rmm full access leaks" `Quick test_rmm_full_access;
    Alcotest.test_case "rmm changes hit production" `Quick test_rmm_changes_hit_production_model;
    Alcotest.test_case "issues inject and probe" `Quick test_issues_inject_and_probe;
    Alcotest.test_case "workflow current resolves" `Quick test_workflow_current_resolves;
    Alcotest.test_case "workflow heimdall resolves" `Quick test_workflow_heimdall_resolves;
    Alcotest.test_case "workflow overhead bounded" `Quick test_workflow_heimdall_slower_but_bounded;
    Alcotest.test_case "workflow neighbor slice insufficient" `Quick
      test_workflow_neighbor_strategy_fails_when_root_cause_hidden;
    Alcotest.test_case "attack exfiltration baseline leaks" `Quick
      test_attack_exfiltration_baseline_leaks;
    Alcotest.test_case "attack exfiltration twin blocks" `Quick
      test_attack_exfiltration_twin_blocks;
    Alcotest.test_case "attack policy damage" `Quick test_attack_policy_damage;
    Alcotest.test_case "attack command builders" `Quick test_attack_command_builders;
    Alcotest.test_case "ticket to string" `Quick test_ticket_to_string;
  ]
