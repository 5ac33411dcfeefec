open Heimdall_verify
open Heimdall_twin
open Heimdall_faults
open Heimdall_msp

type result = {
  scenario : string;
  issue : string;
  seed : int;
  occurrences : Injector.occurrence list;
  kinds : string list;
  twin_retries : int;
  outcome : Heimdall_enforcer.Enforcer.outcome;
  resolved : bool;
  surviving_violations : (Policy.t * string) list;
  audit_ok : (unit, string) Stdlib.result;
}

let passed r =
  r.resolved
  && r.surviving_violations = []
  && r.audit_ok = Ok ()
  && (match r.outcome.Heimdall_enforcer.Enforcer.apply with
     | Some a -> a.Heimdall_enforcer.Applier.rollback = None
     | None -> false)

(* Configuration edits are the only commands the twin fault hook sees;
   the twin plan is sized by how many the fix script will issue. *)
let count_edits commands =
  List.length
    (List.filter
       (fun line ->
         match Command.parse_result line with
         | Ok (Command.Configure _) -> true
         | Ok _ | Error _ -> false)
       commands)

(* Drive the fix script the way a careful technician would under a flaky
   device: a command that fails at execution (not at the monitor — a
   denial is final) is retried up to [max_attempts] times. *)
let exec_with_retry session ~max_attempts lines =
  let retries = ref 0 in
  List.iter
    (fun line ->
      let rec go attempt =
        match Session.exec session line with
        | Ok _ -> ()
        | Error (Session.Exec_failed _) when attempt < max_attempts ->
            incr retries;
            go (attempt + 1)
        | Error _ -> ()
      in
      go 1)
    lines;
  !retries

let run ~engine ?(max_attempts = Heimdall_enforcer.Applier.default_max_attempts)
    ~(scenario : Experiments.scenario) ~(issue : Issue.t) ~seed () =
  let obs = Engine.obs engine in
  Heimdall_obs.Obs.span obs "chaos"
    ~attrs:
      [
        ("scenario", scenario.Experiments.scenario_name);
        ("issue", issue.name);
        ("seed", string_of_int seed);
      ]
    (fun () ->
      let production = scenario.Experiments.net in
      let policies = scenario.Experiments.policies in
      let broken = issue.inject production in
      let slice =
        Twin.slice_nodes ?obs ~production:broken ~endpoints:issue.ticket.endpoints ()
      in
      let privilege = Priv_gen.for_ticket ~network:broken ~slice issue.ticket in
      let emulation =
        Twin.build ?obs ~production:broken ~endpoints:issue.ticket.endpoints ()
      in
      let injector =
        Injector.create ?obs
          (Fault.for_twin ~seed ~edits:(count_edits issue.fix_commands))
      in
      Emulation.set_fault_hook emulation (Some (Injector.twin_hook injector));
      let session = Twin.open_session ?obs ~privilege emulation in
      let twin_retries =
        exec_with_retry session ~max_attempts issue.fix_commands
      in
      (* The apply-stage plan needs the schedule length, known only now. *)
      let steps = List.length (Emulation.changes emulation) in
      Injector.add_faults injector
        (Fault.for_apply ~seed ~network:broken ~steps);
      let outcome =
        Heimdall_enforcer.Enforcer.process ~engine ~injector ~max_attempts
          ~production:broken ~policies ~privilege ~session ()
      in
      let final =
        match outcome.Heimdall_enforcer.Enforcer.updated with
        | Some net -> net
        | None -> broken
      in
      let dataplane net = Engine.dataplane engine net in
      let held_at_start =
        let report = Policy.check_all ~engine (dataplane broken) policies in
        List.filter
          (fun p ->
            not
              (List.exists
                 (fun (q, _) -> Policy.equal p q)
                 report.Policy.violations))
          policies
      in
      let surviving_violations =
        let report = Policy.check_all ~engine (dataplane final) policies in
        List.filter
          (fun (p, _) -> List.exists (Policy.equal p) held_at_start)
          report.Policy.violations
      in
      let resolved =
        outcome.Heimdall_enforcer.Enforcer.approved
        && not (Issue.symptom_present ~engine issue final)
      in
      let occurrences = Injector.occurrences injector in
      let kinds =
        List.sort_uniq compare
          (List.map
             (fun (o : Injector.occurrence) ->
               Fault.kind_name o.Injector.fault.Fault.kind)
             occurrences)
      in
      let r =
        {
          scenario = scenario.Experiments.scenario_name;
          issue = issue.name;
          seed;
          occurrences;
          kinds;
          twin_retries;
          outcome;
          resolved;
          surviving_violations;
          audit_ok =
            Heimdall_enforcer.Audit.verify
              outcome.Heimdall_enforcer.Enforcer.audit;
        }
      in
      Heimdall_obs.Obs.add_attr obs "passed" (string_of_bool (passed r));
      Heimdall_obs.Obs.add_attr obs "faults"
        (string_of_int (List.length occurrences));
      r)

let render r =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "chaos: %s / %s, seed %d\n" r.scenario r.issue r.seed);
  Buffer.add_string buf
    (Printf.sprintf "  faults fired: %d (%s)\n"
       (List.length r.occurrences)
       (String.concat ", " r.kinds));
  List.iter
    (fun o ->
      Buffer.add_string buf
        ("    " ^ Injector.occurrence_to_string o ^ "\n"))
    r.occurrences;
  Buffer.add_string buf
    (Printf.sprintf "  twin retries: %d\n" r.twin_retries);
  (match r.outcome.Heimdall_enforcer.Enforcer.apply with
  | Some a ->
      Buffer.add_string buf
        (Printf.sprintf "  apply retries: %d, rollback: %s\n"
           (List.length a.Heimdall_enforcer.Applier.retries)
           (match a.Heimdall_enforcer.Applier.rollback with
           | None -> "none"
           | Some rb ->
               Printf.sprintf "at step %d (%s)"
                 rb.Heimdall_enforcer.Applier.failed_step
                 rb.Heimdall_enforcer.Applier.failure))
  | None -> Buffer.add_string buf "  apply: not reached (import rejected)\n");
  Buffer.add_string buf
    (Printf.sprintf "  resolved: %b, surviving violations: %d, audit: %s\n"
       r.resolved
       (List.length r.surviving_violations)
       (match r.audit_ok with Ok () -> "verified" | Error m -> "FAILED: " ^ m));
  List.iter
    (fun (p, reason) ->
      Buffer.add_string buf
        (Printf.sprintf "    VIOLATED %s: %s\n" (Policy.to_string p) reason))
    r.surviving_violations;
  Buffer.add_string buf
    (Printf.sprintf "  verdict: %s\n" (if passed r then "PASS" else "FAIL"));
  Buffer.contents buf
