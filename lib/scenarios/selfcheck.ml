open Heimdall_net
open Heimdall_control
open Heimdall_msp
module Engine = Heimdall_verify.Engine
module Policy = Heimdall_verify.Policy
module Plan_sem = Heimdall_sem.Plan_sem
module Clock = Heimdall_obs.Clock
module Json = Heimdall_json.Json

(* ---------------- ticket grant ---------------- *)

let grant net (ticket : Ticket.t) =
  let slice =
    Heimdall_twin.Twin.slice_nodes ~production:net ~endpoints:ticket.endpoints ()
  in
  (slice, Priv_gen.for_ticket ~network:net ~slice ticket)

let ticket_grant net (issue : Issue.t) =
  let broken = issue.inject net in
  let slice, spec = grant broken issue.ticket in
  (broken, slice, spec)

let twin_session net (ticket : Ticket.t) =
  let _, privilege = grant net ticket in
  let emulation = Heimdall_twin.Twin.build ~production:net ~endpoints:ticket.endpoints () in
  (Heimdall_twin.Twin.open_session ~privilege emulation, privilege)

let plan_ticket (issue : Issue.t) ~slice spec =
  {
    Heimdall_lint.Plan_lint.label = "ticket:" ^ issue.name;
    spec;
    scope = slice;
    commands = issue.fix_commands;
  }

(* ---------------- plan soundness ---------------- *)

type replay = {
  issue : Issue.t;
  broken : Network.t;
  slice : string list;
  spec : Heimdall_privilege.Privilege.t;
  emulation : Heimdall_twin.Emulation.t;
  session : Heimdall_twin.Session.t;
}

let replay net (issue : Issue.t) =
  let broken, slice, spec = ticket_grant net issue in
  let emulation =
    Heimdall_twin.Twin.build ~production:broken ~endpoints:issue.ticket.endpoints ()
  in
  let session = Heimdall_twin.Twin.open_session ~privilege:spec emulation in
  ignore (Heimdall_twin.Session.exec_many session issue.fix_commands);
  { issue; broken; slice; spec; emulation; session }

type soundness = {
  label : string;
  delta_sound : bool;
  sufficient : bool;
  denied : int;
  rejected : int;
}

let plan_soundness r =
  let script = Plan_sem.script_of_commands r.issue.fix_commands in
  let analysis = Plan_sem.analyze ~network:r.broken script.Plan_sem.script_changes in
  let proof =
    Plan_sem.prove ~spec:r.spec (Plan_sem.plan_requirements ~network:r.broken script)
  in
  let exact =
    List.fold_left
      (fun acc (_, _, (d : Heimdall_sem.Acl_sem.diff)) ->
        Packet_set.union acc (Packet_set.union d.newly_permitted d.newly_denied))
      Packet_set.empty
      (Heimdall_enforcer.Enforcer.session_acl_diffs r.emulation)
  in
  {
    label = "ticket:" ^ r.issue.name;
    delta_sound = Packet_set.subset exact analysis.Plan_sem.delta;
    sufficient = proof.Plan_sem.sufficient;
    denied = Heimdall_twin.Session.denied_count r.session;
    rejected =
      List.length
        (Heimdall_enforcer.Verifier.privilege_rejections ~privilege:r.spec
           (Heimdall_twin.Emulation.changes r.emulation));
  }

let soundness_failures s =
  (if s.delta_sound then []
   else
     [
       Printf.sprintf "%s: predicted delta does NOT contain the exact post-apply ACL diff"
         s.label;
     ])
  @
  if s.sufficient && (s.denied > 0 || s.rejected > 0) then
    [
      Printf.sprintf
        "%s: statically sufficient, but replay denied %d command(s) and rejected %d \
         change(s)"
        s.label s.denied s.rejected;
    ]
  else []

(* ---------------- fleet-scale gate ---------------- *)

type issue_run = { name : string; resolved : bool; denials : int; wall_s : float }

type scale = {
  fleet : string;
  devices : int;
  links : int;
  policies : int;
  config_lines : int;
  domains : int;
  regen_digest : bool;
  regen_policies : bool;
  validation : (unit, string) result;
  findings : int;
  lint_errors : string list;
  checked : int;
  violations : (string * string) list;
  verdicts_identical : bool;
  issues : issue_run list;
  wall_s_generate : float;
  wall_s_lint : float;
  wall_s_dataplane_1 : float;
  wall_s_check_1 : float;
  wall_s_dataplane_n : float;
  wall_s_check_n : float;
  peak_rss_kb : int option;
  stats_n : Engine.stats;
}

let scale ~engine1 ~engine_n ~issues params =
  let fleet, wall_s_generate = Clock.elapsed (fun () -> Fleetgen.generate params) in
  let net = fleet.Fleetgen.net and policies = fleet.Fleetgen.policies in
  let again = Fleetgen.generate params in
  let findings, wall_s_lint =
    Clock.elapsed (fun () -> Heimdall_lint.Lint.check_network ~engine:engine1 net)
  in
  let verify engine =
    let dp, dp_s = Clock.elapsed (fun () -> Engine.dataplane engine net) in
    let report, check_s = Clock.elapsed (fun () -> Policy.check_all ~engine dp policies) in
    let violations =
      List.map (fun (p, reason) -> (Policy.to_string p, reason)) report.Policy.violations
    in
    ((report.Policy.total, violations), dp_s, check_s)
  in
  let ((checked, violations) as verdicts1), wall_s_dataplane_1, wall_s_check_1 =
    verify engine1
  in
  let verdicts_n, wall_s_dataplane_n, wall_s_check_n = verify engine_n in
  let run_issue (issue : Issue.t) =
    let run, wall_s =
      Clock.elapsed (fun () ->
          Workflow.run_heimdall ~engine:engine_n ~production:net ~policies ~issue ())
    in
    {
      name = issue.name;
      resolved = run.Workflow.resolved;
      denials = run.Workflow.denied;
      wall_s;
    }
  in
  let issues = if issues then List.map run_issue fleet.Fleetgen.issues else [] in
  {
    fleet = fleet.Fleetgen.name;
    devices = Fleetgen.device_count fleet;
    links = Fleetgen.link_count fleet;
    policies = List.length policies;
    config_lines = Network.total_config_lines net;
    domains = Engine.domains engine_n;
    regen_digest = Network.digest net = Network.digest again.Fleetgen.net;
    regen_policies = List.equal Policy.equal policies again.Fleetgen.policies;
    validation = Network.validate net;
    findings = List.length findings;
    lint_errors =
      List.filter_map
        (fun (d : Heimdall_lint.Diagnostic.t) ->
          if d.severity = Heimdall_lint.Diagnostic.Error then
            Some (Heimdall_lint.Diagnostic.to_string d)
          else None)
        findings;
    checked;
    violations;
    verdicts_identical = verdicts1 = verdicts_n;
    issues;
    wall_s_generate;
    wall_s_lint;
    wall_s_dataplane_1;
    wall_s_check_1;
    wall_s_dataplane_n;
    wall_s_check_n;
    peak_rss_kb = Fleetgen.peak_rss_kb ();
    stats_n = Engine.stats engine_n;
  }

(* Each gate with the report line printed just above it, if any. *)
let steps s =
  [
    (None, ("deterministic regeneration (digest)", s.regen_digest));
    (None, ("deterministic regeneration (policies)", s.regen_policies));
    (None, ("network validation", Result.is_ok s.validation));
    ( Some
        (Printf.sprintf "lint: %d findings, %d errors (%.3f s)" s.findings
           (List.length s.lint_errors) s.wall_s_lint),
      ("lint clean (no error severity)", s.lint_errors = []) );
    ( Some
        (Printf.sprintf "verify: %d policies, %d violations (dataplane %.3f s, check %.3f s)"
           s.checked (List.length s.violations) s.wall_s_dataplane_1 s.wall_s_check_1),
      ("zero policy violations", s.violations = []) );
    ( None,
      ( Printf.sprintf "verdicts identical at 1 vs %d domains" s.domains,
        s.verdicts_identical ) );
  ]
  @ List.map
      (fun i ->
        ( Some
            (Printf.sprintf "issue %-10s %s, %d denied (%.3f s)" i.name
               (if i.resolved then "resolved" else "NOT resolved")
               i.denials i.wall_s),
          ( Printf.sprintf "issue %s resolved, nothing denied" i.name,
            i.resolved && i.denials = 0 ) ))
      s.issues

let scale_gates s = List.map snd (steps s)
let scale_passed s = List.for_all snd (scale_gates s)

let render_scale s =
  let b = Buffer.create 1024 in
  let line fmt = Printf.bprintf b (fmt ^^ "\n") in
  line "fleet %s" s.fleet;
  line "devices: %d  links: %d  policies: %d  config lines: %d" s.devices s.links s.policies
    s.config_lines;
  line "generation: %.3f s" s.wall_s_generate;
  List.iter
    (fun (report, (name, ok)) ->
      Option.iter (line "%s") report;
      line "%-42s %s" name (if ok then "ok" else "FAIL"))
    (steps s);
  Option.iter (fun kb -> line "peak RSS: %.1f MB" (float_of_int kb /. 1024.)) s.peak_rss_kb;
  line "scale gate: %s" (if scale_passed s then "PASS" else "FAIL");
  Buffer.contents b

let scale_problems s =
  (match s.validation with Ok () -> [] | Error e -> [ "  " ^ e ])
  @ List.map (fun d -> "  " ^ d) s.lint_errors
  @ List.map (fun (p, reason) -> "  violated: " ^ p ^ " — " ^ reason) s.violations

let scale_to_json s =
  Json.Obj
    [
      ("fleet", Json.String s.fleet);
      ("devices", Json.Int s.devices);
      ("links", Json.Int s.links);
      ("policies", Json.Int s.policies);
      ("domains", Json.Int s.domains);
      ("passed", Json.Bool (scale_passed s));
      ( "gates",
        Json.Obj (List.map (fun (name, ok) -> (name, Json.Bool ok)) (scale_gates s)) );
      ("lint_findings", Json.Int s.findings);
      ("lint_errors", Json.Int (List.length s.lint_errors));
      ("violations", Json.Int (List.length s.violations));
      ("wall_s_generate", Json.Float s.wall_s_generate);
      ("wall_s_lint", Json.Float s.wall_s_lint);
      ("wall_s_dataplane_1_domain", Json.Float s.wall_s_dataplane_1);
      ("wall_s_dataplane_n_domains", Json.Float s.wall_s_dataplane_n);
      ("wall_s_check_1_domain", Json.Float s.wall_s_check_1);
      ("wall_s_check_n_domains", Json.Float s.wall_s_check_n);
      ( "issues",
        Json.List
          (List.map
             (fun i ->
               Json.Obj
                 [
                   ("issue", Json.String i.name);
                   ("resolved", Json.Bool i.resolved);
                   ("denied", Json.Int i.denials);
                   ("wall_s_workflow", Json.Float i.wall_s);
                 ])
             s.issues) );
      ("peak_rss_kb", Json.Int (Option.value ~default:0 s.peak_rss_kb));
      ("engine_stats_n_domains", Engine.stats_to_json s.stats_n);
    ]
