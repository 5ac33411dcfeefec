(* Tests for the fault-injection subsystem: seeded plan determinism, the
   twin fault hook, the transactional applier's retry/rollback behaviour,
   the engine's spawn fallback, and the end-to-end chaos harness. *)

open Heimdall_config
open Heimdall_control
open Heimdall_faults
open Heimdall_enforcer
module Engine = Heimdall_verify.Engine
module Experiments = Heimdall_scenarios.Experiments
module Chaos = Heimdall_scenarios.Chaos
module Enterprise = Heimdall_scenarios.Enterprise

(* The one verification context shared by this file's tests. *)
let engine = Heimdall_verify.Engine.create ~domains:1 ()

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

let enterprise () =
  match Experiments.scenario_of_name "enterprise" with
  | Ok sc -> sc
  | Error _ -> Alcotest.fail "enterprise scenario missing"

let issue_named (sc : Experiments.scenario) name =
  match
    List.find_opt
      (fun (i : Heimdall_msp.Issue.t) -> i.name = name)
      sc.Experiments.issues
  with
  | Some i -> i
  | None -> Alcotest.fail ("issue missing: " ^ name)

(* ---------------- Seeded plans ---------------- *)

let test_plans_deterministic () =
  let net = Enterprise.build () in
  let plan () = Fault.for_apply ~seed:9 ~network:net ~steps:4 in
  checkb "apply plan reproducible" true (plan () = plan ());
  let twin () = Fault.for_twin ~seed:9 ~edits:6 in
  checkb "twin plan reproducible" true (twin () = twin ());
  checkb "different seeds differ" true
    (Fault.for_apply ~seed:9 ~network:net ~steps:4
    <> Fault.for_apply ~seed:10 ~network:net ~steps:4)

let test_apply_plan_shape () =
  let net = Enterprise.build () in
  let faults = Fault.for_apply ~seed:3 ~network:net ~steps:5 in
  let kinds = List.sort_uniq compare (List.map (fun f -> Fault.kind_name f.Fault.kind) faults) in
  checkb "at least three kinds" true (List.length kinds >= 3);
  List.iter
    (fun (f : Fault.t) ->
      checkb "within schedule" true (f.Fault.at >= 1 && f.Fault.at <= 5);
      checkb "duration within retry budget" true
        (f.Fault.duration >= 1 && f.Fault.duration < Applier.default_max_attempts);
      checkb "apply stage" true (f.Fault.stage = Fault.Apply))
    faults

(* Golden plans for the two paper networks, captured before the picks
   moved from list traversals to pre-sized arrays.  The array refactor
   must keep seeded plans byte-identical: same draws, same indices, same
   candidate order. *)
let golden_plan name scenario ~seed ~steps expected =
  let sc =
    match Experiments.scenario_of_name scenario with
    | Ok sc -> sc
    | Error _ -> Alcotest.fail (scenario ^ " scenario missing")
  in
  let plan = Fault.for_apply ~seed ~network:sc.Experiments.net ~steps in
  Alcotest.check
    (Alcotest.list Alcotest.string)
    name expected
    (List.map Fault.to_string plan)

let test_apply_plans_golden () =
  golden_plan "enterprise seed 42" "enterprise" ~seed:42 ~steps:6
    [
      "enclave-restart at apply step 4 (duration 1)";
      "partial-apply at apply step 5 (duration 2)";
      "link-down r5:eth1 at apply step 6 (duration 1)";
      "device-crash r8 at apply step 6 (duration 1)";
    ];
  golden_plan "enterprise seed 7" "enterprise" ~seed:7 ~steps:9
    [
      "enclave-restart at apply step 1 (duration 1)";
      "link-down r5:eth1 at apply step 4 (duration 2)";
      "partial-apply at apply step 7 (duration 2)";
      "device-crash r8 at apply step 8 (duration 1)";
    ];
  golden_plan "university seed 42" "university" ~seed:42 ~steps:6
    [
      "enclave-restart at apply step 4 (duration 1)";
      "partial-apply at apply step 5 (duration 2)";
      "link-down core2:eth4 at apply step 6 (duration 1)";
      "device-crash dist1 at apply step 6 (duration 1)";
    ];
  golden_plan "university seed 7" "university" ~seed:7 ~steps:9
    [
      "enclave-restart at apply step 1 (duration 1)";
      "link-down dist2:eth10 at apply step 4 (duration 2)";
      "partial-apply at apply step 7 (duration 2)";
      "device-crash acc6 at apply step 8 (duration 1)";
    ];
  Alcotest.check
    (Alcotest.list Alcotest.string)
    "twin seed 42"
    [
      "flaky-command at twin step 2 (duration 2)";
      "flaky-command at twin step 4 (duration 2)";
    ]
    (List.map Fault.to_string (Fault.for_twin ~seed:42 ~edits:5))

let test_degrade_is_overlay () =
  let net = Enterprise.build () in
  let topo = Network.topology net in
  let link = List.hd (Heimdall_net.Topology.links topo) in
  let down =
    { Fault.kind = Fault.Link_down link.Heimdall_net.Topology.a;
      stage = Fault.Apply; at = 1; duration = 1 }
  in
  let degraded = Fault.degrade [ down ] net in
  checki "one link lost"
    (Heimdall_net.Topology.link_count topo - 1)
    (Heimdall_net.Topology.link_count (Network.topology degraded));
  (* The true network is untouched — recovery is the overlay expiring. *)
  checki "original intact"
    (Heimdall_net.Topology.link_count topo)
    (Heimdall_net.Topology.link_count (Network.topology net))

(* ---------------- Twin fault hook ---------------- *)

let test_twin_hook_flaky_then_clears () =
  let inj =
    Injector.create
      [ { Fault.kind = Fault.Flaky_command; stage = Fault.Twin; at = 1; duration = 2 } ]
  in
  let hook () = Injector.twin_hook inj ~node:"r1" in
  checkb "attempt 1 fails" true (hook () <> None);
  checkb "attempt 2 fails" true (hook () <> None);
  checkb "attempt 3 clears" true (hook () = None);
  checkb "next edit unaffected" true (hook () = None);
  checki "one occurrence" 1 (List.length (Injector.occurrences inj))

let test_emulation_hook_blocks_edit () =
  let net = Enterprise.build () in
  let em =
    Heimdall_twin.Twin.build ~production:net ~endpoints:[ "h2"; "h3" ] ()
  in
  let before = Heimdall_twin.Emulation.changes em in
  Heimdall_twin.Emulation.set_fault_hook em
    (Some (fun ~node -> Some (node ^ " is flaky")));
  (match
     Heimdall_twin.Emulation.apply em ~node:"r4"
       (Change.Set_ospf_cost { iface = "eth0"; cost = Some 9 })
   with
  | Error m -> checkb "hook reason surfaced" true (m = "r4 is flaky")
  | Ok () -> Alcotest.fail "edit should have failed");
  checkb "state untouched" true (Heimdall_twin.Emulation.changes em = before);
  Heimdall_twin.Emulation.set_fault_hook em None;
  match
    Heimdall_twin.Emulation.apply em ~node:"r4"
      (Change.Set_ospf_cost { iface = "eth0"; cost = Some 9 })
  with
  | Ok () -> ()
  | Error m -> Alcotest.fail ("edit failed after hook removed: " ^ m)

(* ---------------- Transactional applier ---------------- *)

let two_step_plan () =
  let net = Enterprise.build () in
  let policies = Enterprise.policies net in
  let changes =
    [
      Change.v "r4" (Change.Set_ospf_cost { iface = "eth0"; cost = Some 20 });
      Change.v "r5" (Change.Set_ospf_cost { iface = "eth0"; cost = Some 20 });
    ]
  in
  match Scheduler.plan ~engine ~production:net ~policies ~changes () with
  | Ok (plan, final) -> (net, plan, final)
  | Error m -> Alcotest.fail m

let test_applier_clean_run () =
  let net, plan, final = two_step_plan () in
  let s = Applier.run ~production:net ~plan ~audit:Audit.empty () in
  checkb "committed" true s.Applier.committed;
  checki "both steps" 2 s.Applier.steps_applied;
  checki "no retries" 0 (List.length s.Applier.retries);
  checks "lands on the scheduled network"
    (Applier.network_digest final)
    (Applier.network_digest s.Applier.network);
  checkb "audit verifies" true (Audit.verify s.Applier.audit = Ok ())

let test_applier_digest_agrees_with_scheduler () =
  (* Regression for the per-attempt whole-network marshal: the applier now
     compares checkpoints with the incrementally-maintained structural
     digest, so it must agree with [Network.digest] and with every
     scheduler checkpoint along a plan. *)
  let d1 = Applier.network_digest (Enterprise.build ()) in
  checks "equal construction chains agree" d1
    (Applier.network_digest (Enterprise.build ()));
  checks "one digest scheme everywhere"
    (Digest.to_hex (Network.digest (Enterprise.build ())))
    d1;
  let net, plan, final = two_step_plan () in
  let last =
    List.fold_left
      (fun cur (st : Scheduler.step) ->
        match Network.apply_changes [ st.Scheduler.change ] cur with
        | Ok next ->
            checks "applier-side state digest = scheduler checkpoint digest"
              (Applier.network_digest st.Scheduler.checkpoint)
              (Applier.network_digest next);
            next
        | Error e -> Alcotest.fail e)
      net plan.Scheduler.steps
  in
  checks "plan lands on the scheduled final network"
    (Applier.network_digest final) (Applier.network_digest last)

let test_applier_retries_transient_fault () =
  let net, plan, final = two_step_plan () in
  let inj =
    Injector.create
      [ { Fault.kind = Fault.Partial_apply; stage = Fault.Apply; at = 1; duration = 2 } ]
  in
  let s = Applier.run ~injector:inj ~production:net ~plan ~audit:Audit.empty () in
  checkb "committed despite fault" true s.Applier.committed;
  checki "two retries" 2 (List.length s.Applier.retries);
  checks "still lands on the scheduled network"
    (Applier.network_digest final)
    (Applier.network_digest s.Applier.network);
  checkb "retry records chained" true
    (List.exists
       (fun (r : Audit.record) -> r.Audit.action = "retry" && r.Audit.verdict = "transient")
       (Audit.records s.Applier.audit));
  checkb "audit verifies with retries" true (Audit.verify s.Applier.audit = Ok ())

let test_applier_rollback_restores_checkpoint () =
  let net, plan, _ = two_step_plan () in
  (* A persistent fault at step 2: retries exhaust, the applier must
     roll production back to step 1's checkpoint. *)
  let inj =
    Injector.create
      [ { Fault.kind = Fault.Partial_apply; stage = Fault.Apply; at = 2; duration = 999 } ]
  in
  let s =
    Applier.run ~injector:inj ~max_attempts:3 ~production:net ~plan
      ~audit:Audit.empty ()
  in
  checkb "not committed" false s.Applier.committed;
  checki "one step landed" 1 s.Applier.steps_applied;
  let checkpoint1 = (List.hd plan.Scheduler.steps).Scheduler.checkpoint in
  (match s.Applier.rollback with
  | None -> Alcotest.fail "expected a rollback"
  | Some rb ->
      checki "failed at step 2" 2 rb.Applier.failed_step;
      checks "restored the last good checkpoint"
        (Applier.network_digest checkpoint1)
        rb.Applier.restored_digest);
  checks "network is the checkpoint"
    (Applier.network_digest checkpoint1)
    (Applier.network_digest s.Applier.network);
  (* The rolled-back network's dataplane is the checkpoint's dataplane,
     byte for byte. *)
  let dp_digest n = Dataplane.digest (Dataplane.compute n) in
  checks "dataplane digest matches checkpoint"
    (dp_digest checkpoint1)
    (dp_digest s.Applier.network);
  checkb "rollback record chained" true
    (List.exists
       (fun (r : Audit.record) ->
         r.Audit.action = "rollback" && r.Audit.verdict = "rolled-back")
       (Audit.records s.Applier.audit));
  checkb "audit verifies after rollback" true (Audit.verify s.Applier.audit = Ok ())

let test_applier_rollback_at_first_step_restores_production () =
  let net, plan, _ = two_step_plan () in
  let inj =
    Injector.create
      [ { Fault.kind = Fault.Partial_apply; stage = Fault.Apply; at = 1; duration = 999 } ]
  in
  let s =
    Applier.run ~injector:inj ~max_attempts:2 ~production:net ~plan
      ~audit:Audit.empty ()
  in
  checkb "not committed" false s.Applier.committed;
  checki "nothing landed" 0 s.Applier.steps_applied;
  checks "production restored"
    (Applier.network_digest net)
    (Applier.network_digest s.Applier.network)

(* ---------------- Engine spawn fallback ---------------- *)

let test_engine_spawn_fallback () =
  let engine = Engine.create ~domains:4 () in
  let xs = List.init 100 Fun.id in
  let expected = List.map (fun x -> x * x) xs in
  Engine.fail_spawn_for_tests := true;
  let got =
    Fun.protect
      ~finally:(fun () -> Engine.fail_spawn_for_tests := false)
      (fun () -> Engine.map engine (fun x -> x * x) xs)
  in
  checkb "results identical under fallback" true (got = expected);
  checkb "fallbacks counted" true ((Engine.stats engine).Engine.spawn_fallbacks > 0);
  (* And back to normal once spawning works again. *)
  checkb "healthy map agrees" true (Engine.map engine (fun x -> x * x) xs = expected)

(* ---------------- End-to-end chaos ---------------- *)

let audit_head (r : Chaos.result) =
  Audit.head r.Chaos.outcome.Enforcer.audit

let test_chaos_run_recovers () =
  let sc = enterprise () in
  let r = Chaos.run ~engine ~scenario:sc ~issue:(issue_named sc "isp") ~seed:42 () in
  checkb "at least three fault kinds" true (List.length r.Chaos.kinds >= 3);
  checkb "passed" true (Chaos.passed r);
  checkb "resolved" true r.Chaos.resolved;
  checki "no surviving violations" 0 (List.length r.Chaos.surviving_violations);
  checkb "audit verifies" true (r.Chaos.audit_ok = Ok ());
  (* Recovery actually happened through retries, and the audit trail
     shows it. *)
  let records = Audit.records r.Chaos.outcome.Enforcer.audit in
  checkb "retry records present" true
    (List.exists (fun (rc : Audit.record) -> rc.Audit.action = "retry") records);
  checkb "faults fired" true (r.Chaos.occurrences <> [])

let test_chaos_deterministic_across_domains () =
  let sc = enterprise () in
  let issue = issue_named sc "vlan" in
  let run domains =
    let engine = Engine.create ~domains () in
    Chaos.run ~engine ~scenario:sc ~issue ~seed:7 ()
  in
  let a = run 1 in
  let b = run 1 in
  let c = run (max 2 (Engine.default_domains ())) in
  let occs (r : Chaos.result) =
    List.map Injector.occurrence_to_string r.Chaos.occurrences
  in
  checkb "same seed, same faults" true (occs a = occs b);
  checkb "same seed, same audit" true (audit_head a = audit_head b);
  checkb "same faults at N domains" true (occs a = occs c);
  checks "same audit at N domains" (audit_head a) (audit_head c);
  checkb "same verdict" true
    (Chaos.passed a = Chaos.passed c
    && a.Chaos.resolved = c.Chaos.resolved
    && a.Chaos.twin_retries = c.Chaos.twin_retries)

let test_chaos_seeds_differ () =
  let sc = enterprise () in
  let issue = issue_named sc "isp" in
  let r1 = Chaos.run ~engine ~scenario:sc ~issue ~seed:1 () in
  let r2 = Chaos.run ~engine ~scenario:sc ~issue ~seed:2 () in
  (* Both recover, but along different fault sequences. *)
  checkb "both pass" true (Chaos.passed r1 && Chaos.passed r2);
  checkb "different fault sequences" true
    (List.map Injector.occurrence_to_string r1.Chaos.occurrences
    <> List.map Injector.occurrence_to_string r2.Chaos.occurrences)

let suite =
  [
    Alcotest.test_case "seeded plans deterministic" `Quick test_plans_deterministic;
    Alcotest.test_case "apply plan shape" `Quick test_apply_plan_shape;
    Alcotest.test_case "apply plans golden" `Quick test_apply_plans_golden;
    Alcotest.test_case "applier digest agrees with scheduler" `Quick
      test_applier_digest_agrees_with_scheduler;
    Alcotest.test_case "degrade is a pure overlay" `Quick test_degrade_is_overlay;
    Alcotest.test_case "twin hook flaky then clears" `Quick test_twin_hook_flaky_then_clears;
    Alcotest.test_case "emulation hook blocks edit" `Quick test_emulation_hook_blocks_edit;
    Alcotest.test_case "applier clean run" `Quick test_applier_clean_run;
    Alcotest.test_case "applier retries transient fault" `Quick
      test_applier_retries_transient_fault;
    Alcotest.test_case "applier rollback restores checkpoint" `Quick
      test_applier_rollback_restores_checkpoint;
    Alcotest.test_case "applier rollback at first step" `Quick
      test_applier_rollback_at_first_step_restores_production;
    Alcotest.test_case "engine spawn fallback" `Quick test_engine_spawn_fallback;
    Alcotest.test_case "chaos run recovers" `Quick test_chaos_run_recovers;
    Alcotest.test_case "chaos deterministic across domains" `Quick
      test_chaos_deterministic_across_domains;
    Alcotest.test_case "chaos seeds differ" `Quick test_chaos_seeds_differ;
  ]
