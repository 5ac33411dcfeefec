(* The paper's motivating incidents (section 2.2), replayed against both
   the status-quo RMM model and Heimdall:

   1. APT10-style data exfiltration: the technician account tries to
      harvest credentials from every router.
   2. A malicious ACL edit that would open the protected server subnet.
   3. The careless 'erase' on an office gateway.

   Run with: dune exec examples/attack_containment.exe *)

open Heimdall

let () =
  let production = Scenarios.Enterprise.build () in
  let policies = Scenarios.Enterprise.policies production in
  let engine = Verify.Engine.create ~domains:1 () in

  (* --- 1. Exfiltration ------------------------------------------- *)
  print_endline "=== APT10-style exfiltration ===";
  let routers =
    List.filter
      (fun n -> Control.Network.kind n production = Some Net.Topology.Router)
      (Control.Network.node_names production)
  in
  (* Baseline: direct RMM access. *)
  let rmm = Msp.Rmm.open_direct_session production in
  let base = Msp.Attacks.exfiltrate ~production ~targets:routers rmm in
  Printf.printf "RMM baseline: %d commands, %d denied, %d secrets exfiltrated\n"
    base.Msp.Attacks.attempted base.Msp.Attacks.denied
    (List.length base.Msp.Attacks.leaked);
  (* Heimdall: the attacker only holds a twin session for a VLAN ticket. *)
  let ticket =
    Msp.Ticket.make ~id:"T-1" ~kind:Msp.Ticket.Vlan ~description:"port move"
      ~endpoints:[ "h2"; "h3" ]
  in
  let slice =
    Twin.Build.slice_nodes ~production ~endpoints:ticket.Msp.Ticket.endpoints ()
  in
  let privilege = Msp.Priv_gen.for_ticket ~network:production ~slice ticket in
  let twin = Twin.Build.build ~production ~endpoints:ticket.Msp.Ticket.endpoints () in
  let session = Twin.Build.open_session ~privilege twin in
  let contained = Msp.Attacks.exfiltrate ~production ~targets:routers session in
  Printf.printf "Heimdall twin: %d commands, %d denied, %d secrets exfiltrated\n\n"
    contained.Msp.Attacks.attempted contained.Msp.Attacks.denied
    (List.length contained.Msp.Attacks.leaked);

  (* --- 2. Malicious ACL edit -------------------------------------- *)
  print_endline "=== malicious ACL edit (insider) ===";
  let malicious =
    Msp.Attacks.malicious_acl_commands ~acl:"SRV_PROT" ~seq:5
      ~src:(Net.Prefix.of_string "10.1.10.0/24")
      ~dst:Scenarios.Enterprise.sensitive_subnet ~node:"r8"
  in
  (* Baseline: the rule lands in production. *)
  let rmm = Msp.Rmm.open_direct_session production in
  ignore (Twin.Session.exec_many rmm malicious);
  let damaged = Msp.Rmm.resulting_network rmm in
  Printf.printf "RMM baseline: %d policies newly violated in production\n"
    (Msp.Attacks.policy_damage ~engine ~policies ~before:production ~after:damaged);
  (* Heimdall: the monitor allows the (in-class) edit in the twin, but
     the enforcer's verification rejects the import. *)
  let ticket =
    Msp.Ticket.make ~id:"T-2" ~kind:Msp.Ticket.Connectivity
      ~description:"server access flaky" ~endpoints:[ "h1"; "h8" ]
  in
  let slice = Twin.Build.slice_nodes ~production ~endpoints:[ "h1"; "h8" ] () in
  let privilege = Msp.Priv_gen.for_ticket ~network:production ~slice ticket in
  let twin = Twin.Build.build ~production ~endpoints:[ "h1"; "h8" ] () in
  let session = Twin.Build.open_session ~privilege twin in
  ignore (Twin.Session.exec_many session malicious);
  let outcome =
    Enforcer.Pipeline.process ~engine ~production ~policies ~privilege ~session ()
  in
  Printf.printf "Heimdall: enforcer verdict = %s\n"
    (if outcome.Enforcer.Pipeline.approved then "APPROVED (!)" else "rejected");
  List.iter
    (fun r -> Printf.printf "  %s\n" (Enforcer.Verifier.rejection_to_string r))
    outcome.Enforcer.Pipeline.rejections;
  print_newline ();

  (* --- 3. Careless erase ------------------------------------------ *)
  print_endline "=== careless erase on the office gateway ===";
  let erase = Msp.Attacks.erase_gateway_commands ~gateway:"r4" in
  let rmm = Msp.Rmm.open_direct_session production in
  ignore (Twin.Session.exec_many rmm erase);
  Printf.printf "RMM baseline: %d policies newly violated after the erase\n"
    (Msp.Attacks.policy_damage ~engine ~policies ~before:production
       ~after:(Msp.Rmm.resulting_network rmm));
  let twin = Twin.Build.build ~production ~endpoints:[ "h2"; "h3" ] () in
  let session =
    Twin.Build.open_session
      ~privilege:
        (Msp.Priv_gen.for_ticket ~network:production
           ~slice:(Twin.Build.slice_nodes ~production ~endpoints:[ "h2"; "h3" ] ())
           (Msp.Ticket.make ~id:"T-3" ~kind:Msp.Ticket.Vlan ~description:""
              ~endpoints:[ "h2"; "h3" ]))
      twin
  in
  let results = Twin.Session.exec_many session erase in
  Printf.printf "Heimdall: erase attempt -> %s\n"
    (match List.rev results with
    | Error e :: _ -> Twin.Session.error_to_string e
    | Ok _ :: _ -> "executed (!)"
    | [] -> "no commands")
