(* Quickstart: the whole Heimdall workflow in one file.

   A ticket arrives ("h2 cannot reach the printer"), the admin derives a
   Privilege_msp, a twin network is built, the technician fixes the issue
   inside the twin, and the policy enforcer verifies and imports the
   changes into production — with a tamper-evident audit trail at the end.

   Run with: dune exec examples/quickstart.exe *)

open Heimdall

let section title = Printf.printf "\n--- %s ---\n" title

let () =
  (* 1. The production network and its mined policies. *)
  let production = Scenarios.Enterprise.build () in
  let policies = Scenarios.Enterprise.policies production in
  (* One verification context for the whole run: memoized dataplanes and
     traces, shared by the enforcer and the resolution check. *)
  let engine = Verify.Engine.create ~domains:1 () in
  Printf.printf "production: %d devices, %d policies mined\n"
    (List.length (Control.Network.node_names production))
    (List.length policies);

  (* 2. A ticket arrives; the injected fault models the real outage. *)
  let issue = List.hd (Scenarios.Enterprise.issues production) in
  let broken = issue.Msp.Issue.inject production in
  section "ticket";
  print_endline (Msp.Ticket.to_string issue.Msp.Issue.ticket);

  (* 3. Task-driven privilege generation: least privilege by default. *)
  let slice =
    Twin.Build.slice_nodes ~production:broken
      ~endpoints:issue.Msp.Issue.ticket.endpoints ()
  in
  let privilege =
    Msp.Priv_gen.for_ticket ~network:broken ~slice issue.Msp.Issue.ticket
  in
  section "generated Privilege_msp";
  print_endline (Privilege.Dsl.render privilege);

  (* 4. Build the twin (sliced + scrubbed) and open a monitored session. *)
  let twin =
    Twin.Build.build ~production:broken ~endpoints:issue.Msp.Issue.ticket.endpoints ()
  in
  let session = Twin.Build.open_session ~privilege twin in
  section "technician session (inside the twin)";
  List.iter
    (fun cmd ->
      Printf.printf "$ %s\n" cmd;
      match Twin.Session.exec session cmd with
      | Ok out -> print_string out
      | Error e -> Printf.printf "%% %s\n" (Twin.Session.error_to_string e))
    issue.Msp.Issue.fix_commands;

  (* 5. The enforcer verifies the changes and schedules them. *)
  let outcome =
    Enforcer.Pipeline.process ~engine ~production:broken ~policies ~privilege ~session ()
  in
  section "policy enforcer";
  print_string (Enforcer.Pipeline.outcome_to_string outcome);

  (* 6. Check the fix took effect in production. *)
  (match outcome.Enforcer.Pipeline.updated with
  | Some updated ->
      let fixed = not (Msp.Issue.symptom_present ~engine issue updated) in
      Printf.printf "issue resolved in production: %b\n" fixed
  | None -> print_endline "changes rejected; production untouched");

  (* 7. The audit trail is verifiable and sealed. *)
  section "audit trail";
  print_endline (Enforcer.Audit.to_string outcome.Enforcer.Pipeline.audit);
  Printf.printf "\naudit chain verifies: %b\nattestation verifies: %b\n"
    (Enforcer.Audit.verify outcome.Enforcer.Pipeline.audit = Ok ())
    (Enforcer.Enclave.verify_report outcome.Enforcer.Pipeline.report)
