(* Tests for the static plan-effect analyzer (Plan_sem), the PLAN lint
   family, the conflict mediator and the enforcer's hold stage — plus
   the soundness regression: on every scenario ticket the static
   analysis must over-approximate what the twin replay actually does. *)

open Heimdall_net
open Heimdall_config
open Heimdall_control
open Heimdall_privilege
open Heimdall_sem
open Heimdall_lint
module Experiments = Heimdall_scenarios.Experiments
module Selfcheck = Heimdall_scenarios.Selfcheck

(* The one verification context shared by this file's tests. *)
let engine = Heimdall_verify.Engine.create ~domains:1 ()

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string
let pfx = Prefix.of_string
let ip = Ipv4.of_string

let enterprise = lazy (Result.get_ok (Experiments.scenario_of_name "enterprise"))

let scenario name = Result.get_ok (Experiments.scenario_of_name name)

(* ---------------- Effect signatures ---------------- *)

let test_effect_signatures () =
  let changes =
    [
      Change.v "r4" (Change.Set_ospf_cost { iface = "eth0"; cost = Some 20 });
      Change.v "r4"
        (Change.Acl_set_rule
           { acl = "EDGE";
             rule = Acl.rule ~seq:10 Acl.Permit (pfx "10.1.0.0/16") Prefix.any });
      Change.v "r5" (Change.Set_default_gateway (Some (ip "10.1.1.1")));
    ]
  in
  let a = Plan_sem.analyze changes in
  checki "one effect per change" 3 (List.length a.Plan_sem.effects);
  (* Footprint covers each touched (device, section) once, sorted. *)
  checkb "iface slot" true
    (List.mem ("r4", Plan_sem.Iface "eth0") a.Plan_sem.footprint);
  checkb "acl slot" true (List.mem ("r4", Plan_sem.Acl "EDGE") a.Plan_sem.footprint);
  checkb "routing slot" true (List.mem ("r5", Plan_sem.Routing) a.Plan_sem.footprint);
  (* The ACL rule edit predicts a reachability delta (no network given,
     so the ACL content is unknown); the plan delta contains it. *)
  let acl_effect =
    List.find
      (fun (e : Plan_sem.effect_sig) -> e.Plan_sem.section = Plan_sem.Acl "EDGE")
      a.Plan_sem.effects
  in
  checkb "acl delta non-empty" false (Packet_set.is_empty acl_effect.Plan_sem.delta);
  checkb "plan delta contains acl delta" true
    (Packet_set.subset acl_effect.Plan_sem.delta a.Plan_sem.delta);
  (* Requirements carry the privilege actions replay would request. *)
  let pairs =
    List.map
      (fun (r : Plan_sem.requirement) -> (r.Plan_sem.req_action, r.Plan_sem.req_node))
      a.Plan_sem.requirements
  in
  checkb "ospf requirement" true (List.mem ("ospf.cost", "r4") pairs);
  checkb "acl requirement" true (List.mem ("acl.rule", "r4") pairs);
  checkb "no dead ops" true (a.Plan_sem.dead = []);
  checkb "no contradictions" true (a.Plan_sem.contradictions = [])

let test_dead_and_contradictions () =
  let sc = Lazy.force enterprise in
  (* Same slot written twice with different values: a contradiction.
     The first write is also dead (the second one wins). *)
  let changes =
    [
      Change.v "r4" (Change.Set_ospf_cost { iface = "eth0"; cost = Some 20 });
      Change.v "r4" (Change.Set_ospf_cost { iface = "eth0"; cost = Some 30 });
    ]
  in
  let a = Plan_sem.analyze ~network:sc.Experiments.net changes in
  checkb "contradiction flagged" true (a.Plan_sem.contradictions <> []);
  checkb "first write dead" true
    (List.exists (fun (i, _) -> i = 0) a.Plan_sem.dead);
  (* Identical duplicate is dead but not a contradiction. *)
  let dup =
    [
      Change.v "r4" (Change.Set_ospf_cost { iface = "eth0"; cost = Some 20 });
      Change.v "r4" (Change.Set_ospf_cost { iface = "eth0"; cost = Some 20 });
    ]
  in
  let a = Plan_sem.analyze ~network:sc.Experiments.net dup in
  checkb "duplicate not a contradiction" true (a.Plan_sem.contradictions = []);
  checkb "duplicate has a dead op" true (a.Plan_sem.dead <> [])

(* ---------------- Script extraction and the proof ---------------- *)

let test_script_scoping () =
  let s =
    Plan_sem.script_of_commands
      [
        "connect r4";
        "configure interface eth0 shutdown";
        "disconnect";
        "configure interface eth1 shutdown";
      ]
  in
  (* The post-disconnect command has no target: a script error, not a
     change attributed to the wrong device. *)
  checkb "error recorded" true
    (List.exists
       (fun (cmd, _) -> cmd = "configure interface eth1 shutdown")
       s.Plan_sem.script_errors);
  checkb "first shutdown attributed" true
    (List.exists (fun (c : Change.t) -> c.Change.node = "r4") s.Plan_sem.script_changes)

let test_prove_sufficient_and_missing () =
  let s =
    Plan_sem.script_of_commands [ "connect r4"; "configure interface eth0 shutdown" ]
  in
  let reqs = Plan_sem.plan_requirements s in
  let enough =
    Privilege.of_predicates
      [ Privilege.allow ~actions:[ "*" ] ~nodes:[ "r4" ] () ]
  in
  let proof = Plan_sem.prove ~spec:enough reqs in
  checkb "sufficient" true proof.Plan_sem.sufficient;
  checkb "no missing" true (proof.Plan_sem.missing = []);
  let nothing = Privilege.empty in
  let proof = Plan_sem.prove ~spec:nothing reqs in
  checkb "insufficient" false proof.Plan_sem.sufficient;
  checkb "missing named" true (proof.Plan_sem.missing <> [])

(* ---------------- PLAN lint family ---------------- *)

let plan_codes ds = List.map (fun (d : Diagnostic.t) -> d.Diagnostic.code) ds

let test_plan_lint_triggers () =
  let sc = Lazy.force enterprise in
  let ticket =
    {
      Plan_lint.label = "t1";
      spec = Privilege.empty;
      scope = [ "r9" ];
      commands =
        [
          "connect r4";
          (* dead: first cost write is overwritten by the second *)
          "configure interface eth0 ospf cost 20";
          "configure interface eth0 ospf cost 30";
        ];
    }
  in
  let ds = Plan_lint.check ~network:sc.Experiments.net ticket in
  let codes = plan_codes ds in
  checkb "PLAN001 privilege" true (List.mem "PLAN001" codes);
  checkb "PLAN002 dead op" true (List.mem "PLAN002" codes);
  checkb "PLAN003 contradiction" true (List.mem "PLAN003" codes);
  checkb "PLAN004 scope" true (List.mem "PLAN004" codes);
  (* Findings are attributed to the ticket label. *)
  List.iter
    (fun (d : Diagnostic.t) -> checks "device is label" "t1"
        (Option.value d.Diagnostic.device ~default:"-"))
    ds

let test_plan_lint_clean () =
  let sc = Lazy.force enterprise in
  let ticket =
    {
      Plan_lint.label = "clean";
      spec = Privilege.allow_all;
      scope = [];
      commands = [ "connect r4"; "configure interface eth0 ospf cost 20" ];
    }
  in
  let ds = Plan_lint.check ~network:sc.Experiments.net ticket in
  checkb "no findings on a clean plan" true (ds = [])

let test_plan_lint_policy_flow () =
  let sc = Lazy.force enterprise in
  (* An ACL edit over unknown content carries a broad delta: with the
     scenario policies supplied, PLAN005 reports covered policy flows. *)
  let ticket =
    {
      Plan_lint.label = "wide";
      spec = Privilege.allow_all;
      scope = [];
      commands = [ "connect r8"; "configure no access-list SRV_PROT 10" ];
    }
  in
  let ds =
    Plan_lint.check ~network:sc.Experiments.net ~policies:sc.Experiments.policies
      ticket
  in
  checkb "PLAN005 present" true (List.mem "PLAN005" (plan_codes ds))

let scenario_tickets (sc : Experiments.scenario) =
  List.map
    (fun (issue : Heimdall_msp.Issue.t) ->
      let broken = issue.Heimdall_msp.Issue.inject sc.Experiments.net in
      let slice =
        Heimdall_twin.Twin.slice_nodes ~production:broken
          ~endpoints:issue.Heimdall_msp.Issue.ticket.Heimdall_msp.Ticket.endpoints ()
      in
      let spec =
        Heimdall_msp.Priv_gen.for_ticket ~network:broken ~slice
          issue.Heimdall_msp.Issue.ticket
      in
      {
        Plan_lint.label = issue.Heimdall_msp.Issue.ticket.Heimdall_msp.Ticket.id;
        spec;
        scope = slice;
        commands = issue.Heimdall_msp.Issue.fix_commands;
      })
    sc.Experiments.issues

let test_check_plans_cross_domain_determinism () =
  List.iter
    (fun name ->
      let sc = scenario name in
      let tickets = scenario_tickets sc in
      let sequential =
        Lint.check_plans ~engine ~network:sc.Experiments.net
          ~policies:sc.Experiments.policies tickets
      in
      let render ds = String.concat "\n" (List.map Diagnostic.to_string ds) in
      List.iter
        (fun domains ->
          let engine = Heimdall_verify.Engine.create ~domains () in
          let parallel =
            Lint.check_plans ~engine ~network:sc.Experiments.net
              ~policies:sc.Experiments.policies tickets
          in
          checkb
            (Printf.sprintf "%s findings identical at %d domains" name domains)
            true
            (List.equal Diagnostic.equal sequential parallel);
          checks
            (Printf.sprintf "%s render identical at %d domains" name domains)
            (render sequential) (render parallel))
        [ 1; 3 ])
    [ "enterprise"; "university" ]

(* ---------------- Conflict mediation ---------------- *)

let test_mediator_overlap_held () =
  let sc = Lazy.force enterprise in
  let edit seq =
    [
      Change.v "r8"
        (Change.Acl_set_rule
           { acl = "SRV_PROT";
             rule = Acl.rule ~seq Acl.Permit (pfx "10.1.10.0/24") (pfx "10.3.10.0/24") });
    ]
  in
  let tickets =
    [
      { Heimdall_enforcer.Mediator.label = "a"; changes = edit 5 };
      { Heimdall_enforcer.Mediator.label = "b"; changes = edit 7 };
    ]
  in
  let d = Heimdall_enforcer.Mediator.mediate ~network:sc.Experiments.net tickets in
  checki "one admitted" 1 (List.length d.Heimdall_enforcer.Mediator.admitted);
  checki "one held" 1 (List.length d.Heimdall_enforcer.Mediator.held);
  (match d.Heimdall_enforcer.Mediator.held with
  | [ (t, c) ] ->
      checks "held is the later ticket" "b" t.Heimdall_enforcer.Mediator.label;
      checks "conflict first" "a" c.Heimdall_enforcer.Mediator.first;
      checks "conflict second" "b" c.Heimdall_enforcer.Mediator.second;
      checkb "shared footprint named" true
        (List.mem ("r8", Plan_sem.Acl "SRV_PROT")
           c.Heimdall_enforcer.Mediator.shared_footprint)
  | _ -> Alcotest.fail "expected exactly one held ticket")

let test_mediator_disjoint_admitted () =
  let sc = Lazy.force enterprise in
  let tickets =
    [
      { Heimdall_enforcer.Mediator.label = "a";
        changes =
          [ Change.v "r4" (Change.Set_ospf_cost { iface = "eth0"; cost = Some 20 }) ] };
      { Heimdall_enforcer.Mediator.label = "b";
        changes =
          [ Change.v "r5" (Change.Set_ospf_cost { iface = "eth0"; cost = Some 30 }) ] };
      (* Same device as "a" but a different slot AND an empty predicted
         delta (a description edit): no conflict.  Sharing a device alone
         never holds a plan — only shared slots or overlapping deltas. *)
      { Heimdall_enforcer.Mediator.label = "c";
        changes =
          [ Change.v "r4"
              (Change.Set_interface_description
                 { iface = "eth1"; description = Some "uplink" }) ] };
    ]
  in
  let d = Heimdall_enforcer.Mediator.mediate ~network:sc.Experiments.net tickets in
  checki "all admitted" 3 (List.length d.Heimdall_enforcer.Mediator.admitted);
  checkb "none held" true (d.Heimdall_enforcer.Mediator.held = []);
  (* Admission preserves submission order. *)
  checks "order kept" "a,b,c"
    (String.concat ","
       (List.map
          (fun (t : Heimdall_enforcer.Mediator.ticket) ->
            t.Heimdall_enforcer.Mediator.label)
          d.Heimdall_enforcer.Mediator.admitted))

let test_mediator_determinism () =
  (* Mediation over every scenario's real tickets is byte-stable: the
     decision depends only on submission order, never on evaluation
     order. *)
  List.iter
    (fun name ->
      let sc = scenario name in
      let tickets =
        List.map
          (fun (issue : Heimdall_msp.Issue.t) ->
            let s =
              Plan_sem.script_of_commands issue.Heimdall_msp.Issue.fix_commands
            in
            { Heimdall_enforcer.Mediator.label = issue.Heimdall_msp.Issue.name;
              changes = s.Plan_sem.script_changes })
          sc.Experiments.issues
      in
      let once = Heimdall_enforcer.Mediator.mediate ~network:sc.Experiments.net tickets in
      let twice = Heimdall_enforcer.Mediator.mediate ~network:sc.Experiments.net tickets in
      let render (d : Heimdall_enforcer.Mediator.decision) =
        String.concat "|"
          (List.map
             (fun (t : Heimdall_enforcer.Mediator.ticket) ->
               t.Heimdall_enforcer.Mediator.label)
             d.Heimdall_enforcer.Mediator.admitted)
        ^ "//"
        ^ String.concat "|"
            (List.map
               (fun (_, c) -> Heimdall_enforcer.Mediator.conflict_to_string c)
               d.Heimdall_enforcer.Mediator.held)
      in
      checks (name ^ " stable") (render once) (render twice))
    [ "enterprise"; "university" ]

(* ---------------- Enforcer hold stage ---------------- *)

let replay_session (sc : Experiments.scenario) (issue : Heimdall_msp.Issue.t) =
  let broken = issue.Heimdall_msp.Issue.inject sc.Experiments.net in
  let endpoints = issue.Heimdall_msp.Issue.ticket.Heimdall_msp.Ticket.endpoints in
  let slice = Heimdall_twin.Twin.slice_nodes ~production:broken ~endpoints () in
  let privilege =
    Heimdall_msp.Priv_gen.for_ticket ~network:broken ~slice
      issue.Heimdall_msp.Issue.ticket
  in
  let em = Heimdall_twin.Twin.build ~production:broken ~endpoints () in
  let session = Heimdall_twin.Twin.open_session ~privilege em in
  ignore
    (Heimdall_twin.Session.exec_many session issue.Heimdall_msp.Issue.fix_commands);
  (broken, privilege, em, session)

let test_enforcer_holds_on_conflict () =
  let sc = Lazy.force enterprise in
  let issue = List.hd sc.Experiments.issues in
  let broken, privilege, em, session = replay_session sc issue in
  let session_changes = Heimdall_twin.Emulation.changes em in
  checkb "session produced changes" true (session_changes <> []);
  (* An in-flight plan touching the very same slots forces a hold. *)
  let outcome =
    Heimdall_enforcer.Enforcer.process ~engine
      ~in_flight:[ ("earlier", session_changes) ]
      ~production:broken ~policies:sc.Experiments.policies ~privilege ~session ()
  in
  checkb "held, not approved" false outcome.Heimdall_enforcer.Enforcer.approved;
  checkb "conflicts reported" true
    (outcome.Heimdall_enforcer.Enforcer.conflicts <> []);
  checkb "no merit rejections" true
    (outcome.Heimdall_enforcer.Enforcer.rejections = []);
  checkb "production untouched" true
    (outcome.Heimdall_enforcer.Enforcer.updated = None);
  (* The hold is in the audit trail and the chain still verifies. *)
  let audit = outcome.Heimdall_enforcer.Enforcer.audit in
  checkb "plan.conflict audited" true
    (List.exists
       (fun (r : Heimdall_enforcer.Audit.record) ->
         r.Heimdall_enforcer.Audit.action = "plan.conflict"
         && r.Heimdall_enforcer.Audit.verdict = "held")
       (Heimdall_enforcer.Audit.records audit));
  checkb "audit verifies" true (Heimdall_enforcer.Audit.verify audit = Ok ())

let test_enforcer_admits_disjoint_in_flight () =
  let sc = Lazy.force enterprise in
  let issue = List.hd sc.Experiments.issues in
  let broken, privilege, _em, session = replay_session sc issue in
  let disjoint =
    [ Change.v "r9" (Change.Set_interface_description
                       { iface = "eth0"; description = Some "maintenance" }) ]
  in
  let outcome =
    Heimdall_enforcer.Enforcer.process ~engine ~in_flight:[ ("earlier", disjoint) ]
      ~production:broken ~policies:sc.Experiments.policies ~privilege ~session ()
  in
  checkb "no conflicts" true (outcome.Heimdall_enforcer.Enforcer.conflicts = []);
  checkb "approved" true outcome.Heimdall_enforcer.Enforcer.approved

(* ---------------- Scheduler footprint ---------------- *)

let test_scheduler_plan_footprint () =
  let sc = Lazy.force enterprise in
  let changes =
    [ Change.v "r4" (Change.Set_ospf_cost { iface = "eth0"; cost = Some 20 }) ]
  in
  match
    Heimdall_enforcer.Scheduler.plan ~engine ~production:sc.Experiments.net
      ~policies:sc.Experiments.policies ~changes ()
  with
  | Error e -> Alcotest.fail e
  | Ok (plan, _) ->
      checkb "footprint recorded" true
        (List.mem ("r4", Plan_sem.Iface "eth0")
           plan.Heimdall_enforcer.Scheduler.footprint)

(* ---------------- Soundness regression ---------------- *)

(* Exact ACL delta of a replayed session: union of the semantic diffs of
   every (device, ACL) the session touched. *)
let exact_delta before after =
  List.fold_left
    (fun acc node ->
      let acls net =
        match Network.config node net with
        | Some (cfg : Ast.t) -> cfg.Ast.acls
        | None -> []
      in
      let names =
        List.sort_uniq String.compare
          (List.map (fun (a : Acl.t) -> a.Acl.name) (acls before @ acls after))
      in
      List.fold_left
        (fun acc name ->
          let find net =
            match Network.config node net with
            | Some cfg -> Option.value (Ast.find_acl name cfg) ~default:(Acl.empty name)
            | None -> Acl.empty name
          in
          let d = Acl_sem.diff ~before:(find before) ~after:(find after) in
          Packet_set.union acc
            (Packet_set.union d.Acl_sem.newly_permitted d.Acl_sem.newly_denied))
        acc names)
    Packet_set.empty
    (Network.node_names before)

let test_static_analysis_sound_on_scenarios () =
  List.iter
    (fun name ->
      let sc = scenario name in
      List.iter
        (fun (issue : Heimdall_msp.Issue.t) ->
          let label = name ^ "/" ^ issue.Heimdall_msp.Issue.name in
          let broken, privilege, em, session = replay_session sc issue in
          let replayed = Heimdall_twin.Emulation.changes em in
          let script =
            Plan_sem.script_of_commands issue.Heimdall_msp.Issue.fix_commands
          in
          let reqs = Plan_sem.plan_requirements ~network:broken script in
          (* 1. Exercised privilege is covered: every (action, node) pair
             the replay actually performed appears in the static
             requirements. *)
          List.iter
            (fun (action, node) ->
              checkb
                (Printf.sprintf "%s: exercised %s on %s predicted" label action node)
                true
                (List.exists
                   (fun (r : Plan_sem.requirement) ->
                     r.Plan_sem.req_action = action && r.Plan_sem.req_node = node)
                   reqs))
            (Priv_sem.exercised replayed);
          (* 2. The predicted packet-set delta contains the exact
             post-apply ACL diff. *)
          let a = Plan_sem.analyze ~network:broken script.Plan_sem.script_changes in
          let exact =
            exact_delta
              (Heimdall_twin.Emulation.baseline em)
              (Heimdall_twin.Emulation.network em)
          in
          checkb (label ^ ": delta over-approximates") true
            (Packet_set.subset exact a.Plan_sem.delta);
          (* 3. The static sufficiency verdict agrees with replay: the
             grant was proven sufficient, so the monitor denied nothing
             and the enforcer's privilege gate raises nothing. *)
          let proof = Plan_sem.prove ~spec:privilege reqs in
          checkb (label ^ ": proof sufficient") true proof.Plan_sem.sufficient;
          checki (label ^ ": no denials") 0 (Heimdall_twin.Session.denied_count session);
          checkb (label ^ ": no replay rejections") true
            (Heimdall_enforcer.Verifier.privilege_rejections ~privilege replayed = []))
        sc.Experiments.issues)
    [ "enterprise"; "university" ]

(* The shared soundness oracle agrees with the reference above on every
   paper ticket and every fat-tree k=4 ticket, and a failed property
   yields its message. *)
let test_plan_soundness_matches_reference () =
  List.iter
    (fun name ->
      let sc = scenario name in
      List.iter
        (fun (issue : Heimdall_msp.Issue.t) ->
          let label = name ^ "/" ^ issue.Heimdall_msp.Issue.name in
          let r = Selfcheck.replay sc.Experiments.net issue in
          let s = Selfcheck.plan_soundness r in
          let script =
            Plan_sem.script_of_commands issue.Heimdall_msp.Issue.fix_commands
          in
          let a =
            Plan_sem.analyze ~network:r.Selfcheck.broken script.Plan_sem.script_changes
          in
          let reference =
            Packet_set.subset
              (exact_delta
                 (Heimdall_twin.Emulation.baseline r.Selfcheck.emulation)
                 (Heimdall_twin.Emulation.network r.Selfcheck.emulation))
              a.Plan_sem.delta
          in
          checkb (label ^ ": delta_sound is the reference verdict") reference
            s.Selfcheck.delta_sound;
          checkb (label ^ ": delta contained") true s.Selfcheck.delta_sound;
          checki (label ^ ": denials") 0 s.Selfcheck.denied;
          checki (label ^ ": rejections") 0 s.Selfcheck.rejected;
          checkb (label ^ ": sound") true (Selfcheck.soundness_failures s = []))
        sc.Experiments.issues)
    [ "enterprise"; "university"; "fleet:fat-tree:k=4" ];
  let unsound =
    { Selfcheck.label = "ticket:x"; delta_sound = false; sufficient = true; denied = 1;
      rejected = 0 }
  in
  checki "both broken properties reported" 2
    (List.length (Selfcheck.soundness_failures unsound))

(* ---------------- Fleet-scale plan pipeline ---------------- *)

(* The same per-ticket construction `heimdall analyze --plan` uses, run
   over a generated 37-device fleet: the prepared fixes lint clean, and
   the deliberately over-granting ISP ticket trips the over-grant
   analyzer (PRV004) after twin replay. *)
let test_fleet_plan_pipeline () =
  let sc = scenario "fleet:fat-tree:k=4" in
  checki "fat-tree k=4 is 37 devices" 37
    (List.length (Network.node_names sc.Experiments.net));
  let tickets = scenario_tickets sc in
  checkb "fleet has tickets" true (tickets <> []);
  let ds =
    Lint.check_plans ~engine ~network:sc.Experiments.net ~policies:sc.Experiments.policies
      tickets
  in
  let errors =
    List.filter (fun (d : Diagnostic.t) -> d.severity = Diagnostic.Error) ds
  in
  List.iter
    (fun (d : Diagnostic.t) -> Printf.eprintf "plan: %s\n" (Diagnostic.to_string d))
    errors;
  checki "no error-severity PLAN findings on fleet fixes" 0 (List.length errors);
  let issue =
    List.find
      (fun (i : Heimdall_msp.Issue.t) -> i.Heimdall_msp.Issue.name = "overgrant")
      sc.Experiments.issues
  in
  let broken, privilege, em, _session = replay_session sc issue in
  let changes = Heimdall_twin.Emulation.changes em in
  let usage =
    Lint.check_privilege_usage ~label:"ticket:overgrant" ~network:broken
      ~spec:privilege ~changes ()
  in
  checkb "PRV004 over-grant detected on the fleet ticket" true
    (List.exists (fun (d : Diagnostic.t) -> d.Diagnostic.code = "PRV004") usage)

let suite =
  [
    Alcotest.test_case "effect signatures" `Quick test_effect_signatures;
    Alcotest.test_case "dead ops and contradictions" `Quick test_dead_and_contradictions;
    Alcotest.test_case "script scoping" `Quick test_script_scoping;
    Alcotest.test_case "proof sufficient/missing" `Quick test_prove_sufficient_and_missing;
    Alcotest.test_case "PLAN lint triggers" `Quick test_plan_lint_triggers;
    Alcotest.test_case "PLAN lint clean plan" `Quick test_plan_lint_clean;
    Alcotest.test_case "PLAN005 policy flow" `Quick test_plan_lint_policy_flow;
    Alcotest.test_case "check_plans cross-domain determinism" `Quick
      test_check_plans_cross_domain_determinism;
    Alcotest.test_case "mediator holds overlap" `Quick test_mediator_overlap_held;
    Alcotest.test_case "mediator admits disjoint" `Quick test_mediator_disjoint_admitted;
    Alcotest.test_case "mediator determinism" `Quick test_mediator_determinism;
    Alcotest.test_case "enforcer holds on conflict" `Quick test_enforcer_holds_on_conflict;
    Alcotest.test_case "enforcer admits disjoint in-flight" `Quick
      test_enforcer_admits_disjoint_in_flight;
    Alcotest.test_case "scheduler plan footprint" `Quick test_scheduler_plan_footprint;
    Alcotest.test_case "static analysis sound on scenarios" `Quick
      test_static_analysis_sound_on_scenarios;
    Alcotest.test_case "shared soundness oracle matches the reference" `Quick
      test_plan_soundness_matches_reference;
    Alcotest.test_case "fleet plan pipeline" `Quick test_fleet_plan_pipeline;
  ]
