(* The paper's OSPF troubleshooting scenario (section 5), step by step:
   an office router's uplink is configured into the wrong OSPF area, its
   subnet drops off the network, and the technician diagnoses and fixes
   it inside the twin — comparing what the Current and Heimdall
   workflows cost.

   Run with: dune exec examples/troubleshoot_ospf.exe *)

open Heimdall

let () =
  let production = Scenarios.Enterprise.build () in
  let policies = Scenarios.Enterprise.policies production in
  let issue =
    List.find
      (fun (i : Msp.Issue.t) -> i.name = "ospf")
      (Scenarios.Enterprise.issues production)
  in
  Printf.printf "ticket: %s\n\n" (Msp.Ticket.to_string issue.Msp.Issue.ticket);

  (* Show the symptom on the broken network. *)
  let broken = issue.Msp.Issue.inject production in
  let dp = Control.Dataplane.compute broken in
  let probe = issue.Msp.Issue.probe in
  Printf.printf "probe before fix (%s):\n%s\n" (Net.Flow.to_string probe)
    (Verify.Trace.result_to_string (Verify.Trace.trace dp probe));

  (* Run both workflows and compare. *)
  let engine = Verify.Engine.create ~domains:1 () in
  let current = Msp.Workflow.run_current ~engine ~production ~issue in
  let heimdall = Msp.Workflow.run_heimdall ~engine ~production ~policies ~issue () in
  print_string (Msp.Workflow.run_to_string current);
  print_newline ();
  print_string (Msp.Workflow.run_to_string heimdall);
  Printf.printf "\nHeimdall overhead: +%.1f s — the price of working on an isolated twin\n"
    (Msp.Workflow.total_s heimdall -. Msp.Workflow.total_s current);

  (* Show what the technician could and could not touch. *)
  (match heimdall.Msp.Workflow.outcome with
  | Some outcome ->
      Printf.printf "\nchanges imported into production:\n";
      (match outcome.Enforcer.Pipeline.plan with
      | Some plan -> print_string (Enforcer.Scheduler.plan_to_string plan)
      | None -> ());
      Printf.printf "policies repaired: %d\n"
        (List.length outcome.Enforcer.Pipeline.fixed_policies)
  | None -> ());

  (* And the probe after the fix. *)
  let final = heimdall.Msp.Workflow.final_network in
  Printf.printf "\nprobe after fix:\n%s"
    (Verify.Trace.result_to_string
       (Verify.Trace.trace (Control.Dataplane.compute final) probe))
