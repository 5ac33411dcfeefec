(* Emergency mode (paper section 7): the twin cannot help — the uplink is
   physically down and the fix must happen on production NOW.  The
   reference monitor bypasses the twin but routes every command through
   the policy enforcer: privilege-checked, policy-checked, audited.

   Run with: dune exec examples/emergency_mode.exe *)

open Heimdall

let () =
  let production = Scenarios.Enterprise.build () in
  let policies = Scenarios.Enterprise.policies production in
  let engine = Verify.Engine.create ~domains:1 () in
  let issue =
    List.find
      (fun (i : Msp.Issue.t) -> i.name = "isp")
      (Scenarios.Enterprise.issues production)
  in
  let broken = issue.Msp.Issue.inject production in
  Printf.printf "ticket: %s\n" (Msp.Ticket.to_string issue.Msp.Issue.ticket);
  Printf.printf "symptom present: %b\n\n" (Msp.Issue.symptom_present ~engine issue broken);

  (* The admin grants an emergency privilege scoped to the edge router. *)
  let privilege =
    Privilege.Dsl.parse
      {|
      allow show.*, diag.* on *;
      allow interface.up, interface.shutdown, interface.addr on r1;
      allow route.static, route.gateway on r1;
      |}
  in
  let session =
    Msp.Emergency.open_session ~engine ~reason:"uplink circuit dead; customer offline"
      ~production:broken ~policies ~privilege ()
  in

  (* The prepared fix — plus two commands that must NOT get through. *)
  let commands =
    issue.Msp.Issue.fix_commands
    @ [ "configure interface vlan10 shutdown" (* wrong device anyway *);
        "erase startup-config" ]
  in
  List.iter
    (fun cmd ->
      Printf.printf "$ %s\n" cmd;
      match Msp.Emergency.exec session cmd with
      | Ok out -> print_string out
      | Error r -> Printf.printf "%% %s\n" (Msp.Emergency.refusal_to_string r))
    commands;

  Printf.printf "\nchanges applied to production: %d\n"
    (List.length (Msp.Emergency.applied session));
  Printf.printf "issue resolved: %b\n"
    (not (Msp.Issue.symptom_present ~engine issue (Msp.Emergency.production session)));
  Printf.printf "audit records: %d (chain verifies: %b)\n"
    (Enforcer.Audit.length (Msp.Emergency.audit session))
    (Enforcer.Audit.verify (Msp.Emergency.audit session) = Ok ())
