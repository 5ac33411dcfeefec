open Heimdall_control
open Heimdall_twin
module Clock = Heimdall_obs.Clock

type step = { label : string; human_s : float; compute_s : float }

let step_total s = s.human_s +. s.compute_s

type run = {
  workflow : string;
  issue : string;
  steps : step list;
  resolved : bool;
  denied : int;
  session : Session.t;
  outcome : Heimdall_enforcer.Enforcer.outcome option;
  final_network : Network.t;
}

let total_s r = List.fold_left (fun acc s -> acc +. step_total s) 0.0 r.steps

let run_to_string r =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "%s / %s: %.1f s total, %s, %d denied commands\n" r.workflow r.issue
       (total_s r)
       (if r.resolved then "resolved" else "NOT resolved")
       r.denied);
  List.iter
    (fun s ->
      Buffer.add_string buf
        (Printf.sprintf "  %-22s %6.1f s human  %8.4f s compute\n" s.label s.human_s
           s.compute_s))
    r.steps;
  Buffer.contents buf

(* Human time for executing a prepared script: one connect is already
   counted separately, so only the per-command cost accrues here. *)
let script_human commands = float_of_int (List.length commands) *. Timing.per_command_s

let run_current ~engine ~production ~(issue : Issue.t) =
  let broken = issue.inject production in
  let session = Rmm.open_direct_session broken in
  let connect = { label = "connect"; human_s = Timing.connect_s; compute_s = 0.0 } in
  let (_ : (string, Session.error) result list), ops_compute =
    Clock.elapsed (fun () -> Session.exec_many session issue.fix_commands)
  in
  let operations =
    {
      label = "perform operations";
      human_s = script_human issue.fix_commands;
      compute_s = ops_compute;
    }
  in
  let save = { label = "save changes"; human_s = Timing.save_s; compute_s = 0.0 } in
  let final_network = Rmm.resulting_network session in
  {
    workflow = "current";
    issue = issue.name;
    steps = [ connect; operations; save ];
    resolved = not (Issue.symptom_present ~engine issue final_network);
    denied = Session.denied_count session;
    session;
    outcome = None;
    final_network;
  }

let run_heimdall ?(strategy = Slicer.Task) ~engine ?(in_flight = []) ~production ~policies
    ~(issue : Issue.t) () =
  let obs = Heimdall_verify.Engine.obs engine in
  (* The whole run is one root span named "session": every stage below —
     and the enforcer's audit-trail correlation record — hangs off it. *)
  Heimdall_obs.Obs.span obs "session"
    ~attrs:[ ("workflow", "heimdall"); ("issue", issue.name) ]
    (fun () ->
      let broken = issue.inject production in
      (* Step 1: generate the Privilege_msp. *)
      let (slice, privilege), privgen_compute =
        Heimdall_obs.Obs.span obs "workflow.generate_privilege" (fun () ->
            Clock.elapsed (fun () ->
                let slice =
                  Twin.slice_nodes ~strategy ?obs ~production:broken
                    ~endpoints:issue.ticket.endpoints ()
                in
                (slice, Priv_gen.for_ticket ~network:broken ~slice issue.ticket)))
      in
      let privgen =
        {
          label = "generate privilege";
          human_s = Timing.privilege_review_s;
          compute_s = privgen_compute;
        }
      in
      (* Static pre-flight: prove, before any twin boots, that the
         generated grant is sufficient for the ticket's fix script — a
         plan that would die of a mid-apply denial is caught here for
         free.  Advisory at this stage (the enforcer re-checks); the
         verdict lands in the trace. *)
      let () =
        let script =
          Heimdall_sem.Plan_sem.script_of_commands issue.fix_commands
        in
        let proof =
          Heimdall_sem.Plan_sem.prove ~spec:privilege
            (Heimdall_sem.Plan_sem.plan_requirements ~network:broken script)
        in
        let analysis =
          Heimdall_sem.Plan_sem.analyze ~network:broken
            script.Heimdall_sem.Plan_sem.script_changes
        in
        Heimdall_obs.Obs.event obs "plan.preflight"
          ~attrs:
            [
              ("issue", issue.name);
              ("sufficient", string_of_bool proof.Heimdall_sem.Plan_sem.sufficient);
              ( "missing",
                string_of_int
                  (List.length proof.Heimdall_sem.Plan_sem.missing) );
              ( "footprint",
                string_of_int
                  (List.length analysis.Heimdall_sem.Plan_sem.footprint) );
            ]
      in
      (* Step 2: build the twin (slice, scrub, boot, precompute dataplane). *)
      let emulation, twin_compute =
        Heimdall_obs.Obs.span obs "workflow.twin_setup" (fun () ->
            Clock.elapsed (fun () ->
                let em =
                  Twin.build ~strategy ?obs ~production:broken
                    ~endpoints:issue.ticket.endpoints ()
                in
                ignore (Emulation.dataplane em);
                em))
      in
      let twin_boot_human =
        Timing.twin_boot_base_s
        +. (float_of_int (List.length slice) *. Timing.twin_boot_per_node_s)
      in
      let twin_setup =
        { label = "set up twin network"; human_s = twin_boot_human; compute_s = twin_compute }
      in
      let session = Twin.open_session ?obs ~privilege emulation in
      let connect = { label = "connect"; human_s = Timing.connect_s; compute_s = 0.0 } in
      let (_ : (string, Session.error) result list), ops_compute =
        Heimdall_obs.Obs.span obs "workflow.operations"
          ~attrs:[ ("commands", string_of_int (List.length issue.fix_commands)) ]
          (fun () ->
            Clock.elapsed (fun () -> Session.exec_many session issue.fix_commands))
      in
      let operations =
        {
          label = "perform operations";
          human_s = script_human issue.fix_commands;
          compute_s = ops_compute;
        }
      in
      (* Step 3: verify changes and schedule them into production. *)
      let outcome, verify_compute =
        Heimdall_obs.Obs.span obs "workflow.verify" (fun () ->
            Clock.elapsed (fun () ->
                Heimdall_enforcer.Enforcer.process ~engine ~in_flight
                  ~production:broken ~policies ~privilege ~session ()))
      in
      let verify =
        {
          label = "verify and schedule";
          human_s = Timing.verify_review_s;
          compute_s = verify_compute;
        }
      in
      let save = { label = "save changes"; human_s = Timing.save_s; compute_s = 0.0 } in
      let final_network =
        match outcome.Heimdall_enforcer.Enforcer.updated with
        | Some net -> net
        | None -> broken
      in
      let run =
        {
          workflow = "heimdall";
          issue = issue.name;
          steps = [ privgen; twin_setup; connect; operations; verify; save ];
          resolved =
            outcome.Heimdall_enforcer.Enforcer.approved
            && not (Issue.symptom_present ~engine issue final_network);
          denied = Session.denied_count session;
          session;
          outcome = Some outcome;
          final_network;
        }
      in
      Heimdall_obs.Obs.add_attr obs "resolved" (string_of_bool run.resolved);
      Heimdall_obs.Obs.add_attr obs "denied" (string_of_int run.denied);
      Heimdall_obs.Obs.incr obs "workflow.runs"
        ~labels:
          [
            ("issue", issue.name);
            ("resolved", string_of_bool run.resolved);
          ];
      run)
