open Heimdall_net
open Heimdall_control
open Heimdall_verify
open Heimdall_msp
module Clock = Heimdall_obs.Clock

let cached f =
  let cell = ref None in
  fun () ->
    match !cell with
    | Some v -> v
    | None ->
        let v = f () in
        cell := Some v;
        v

let enterprise =
  cached (fun () ->
      let net = Enterprise.build () in
      (net, Enterprise.policies net))

let university =
  cached (fun () ->
      let net = University.build () in
      (net, University.policies net))

type scenario = {
  scenario_name : string;
  net : Network.t;
  policies : Heimdall_verify.Policy.t list;
  issues : Issue.t list;
  poltree : Heimdall_poltree.Poltree.t Lazy.t;
}

let scenario name net policies issues =
  let open Heimdall_poltree in
  let poltree = lazy (Mine.of_policies ~segs:(Mine.segs_of_network net) policies) in
  { scenario_name = name; net; policies; issues; poltree }

let scenario_names = [ "enterprise"; "university" ]

let scenario_of_name = function
  | "enterprise" ->
      let net, policies = enterprise () in
      Ok (scenario "enterprise" net policies (Enterprise.issues net))
  | "university" ->
      let net, policies = university () in
      Ok (scenario "university" net policies (University.issues net))
  | name when String.length name > 6 && String.sub name 0 6 = "fleet:" -> (
      (* Generated fleet, e.g. "fleet:fat-tree:k=8:seed=42" — the whole
         pipeline (lint, analyze, chaos, serve, ...) runs on it unmodified. *)
      match Fleetgen.spec_of_string name with
      | Error m -> Error (`Bad_fleet_spec m)
      | Ok params ->
          let f = Fleetgen.generate params in
          let sc = scenario f.Fleetgen.name f.net f.policies f.issues in
          Ok { sc with poltree = Lazy.from_val f.poltree })
  | _ -> Error `Unknown

(* --------------------------------------------------------------- *)
(* Table 1                                                          *)
(* --------------------------------------------------------------- *)

type table1_row = {
  network : string;
  routers : int;
  hosts : int;
  links : int;
  policies : int;
  config_lines : int;
}

let table1_row network net policies =
  let topo = Network.topology net in
  {
    network;
    routers =
      List.length (Topology.node_names ~kind:Topology.Router topo)
      + List.length (Topology.node_names ~kind:Topology.Firewall topo);
    hosts = List.length (Topology.node_names ~kind:Topology.Host topo);
    links = Topology.link_count topo;
    policies = List.length policies;
    config_lines = Network.total_config_lines net;
  }

let table1 () =
  let ent, ent_p = enterprise () in
  let uni, uni_p = university () in
  [ table1_row "Enterprise" ent ent_p; table1_row "University" uni uni_p ]

let render_table1 rows =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    "Network     #routers  #hosts  #links  #policies  lines of configs\n";
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "%-11s %8d  %6d  %6d  %9d  %16d\n" r.network r.routers r.hosts
           r.links r.policies r.config_lines))
    rows;
  Buffer.contents buf

(* --------------------------------------------------------------- *)
(* Figure 7                                                         *)
(* --------------------------------------------------------------- *)

type fig7_cell = {
  issue : string;
  workflow : string;
  steps : (string * float) list;
  total_s : float;
  resolved : bool;
}

let cell_of_run (r : Workflow.run) =
  {
    issue = r.issue;
    workflow = r.workflow;
    steps = List.map (fun (s : Workflow.step) -> (s.label, Workflow.step_total s)) r.steps;
    total_s = Workflow.total_s r;
    resolved = r.resolved;
  }

let fig7 ~engine ?(network = `Enterprise) () =
  let net, policies, issues =
    match network with
    | `Enterprise ->
        let net, p = enterprise () in
        (net, p, Enterprise.issues net)
    | `University ->
        let net, p = university () in
        (net, p, University.issues net)
  in
  List.concat_map
    (fun issue ->
      [
        cell_of_run (Workflow.run_current ~engine ~production:net ~issue);
        cell_of_run (Workflow.run_heimdall ~engine ~production:net ~policies ~issue ());
      ])
    issues

let render_fig7 cells =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "Issue  Workflow   Total(s)  Resolved  Breakdown\n";
  List.iter
    (fun c ->
      Buffer.add_string buf
        (Printf.sprintf "%-6s %-9s %8.1f  %-8s  %s\n" c.issue c.workflow c.total_s
           (if c.resolved then "yes" else "NO")
           (String.concat ", "
              (List.map (fun (l, s) -> Printf.sprintf "%s=%.1fs" l s) c.steps))))
    cells;
  Buffer.contents buf

let fig7_overhead cells =
  let total issue wf =
    List.find_opt (fun c -> c.issue = issue && c.workflow = wf) cells
    |> Option.map (fun c -> c.total_s)
  in
  List.filter_map
    (fun issue ->
      match (total issue "heimdall", total issue "current") with
      | Some h, Some c -> Some (issue, h -. c)
      | _ -> None)
    (List.sort_uniq String.compare (List.map (fun c -> c.issue) cells))

(* --------------------------------------------------------------- *)
(* Figures 8 & 9                                                    *)
(* --------------------------------------------------------------- *)

let fig8 ~engine () =
  let net, policies = enterprise () in
  Metrics.sweep_all ~engine ~production:net ~policies ()

let fig9 ~engine () =
  let net, policies = university () in
  Metrics.sweep_all ~engine ~production:net ~policies ()

let render_sweep ~title summaries =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (title ^ "\n");
  Buffer.add_string buf "Technique  Feasibility(%)  Attack surface(%)\n";
  List.iter
    (fun (s : Metrics.summary) ->
      Buffer.add_string buf
        (Printf.sprintf "%-9s  %14.1f  %17.1f\n"
           (Metrics.technique_to_string s.technique)
           s.feasibility_pct s.attack_surface_pct))
    summaries;
  Buffer.contents buf

(* --------------------------------------------------------------- *)
(* Ablation: continuous vs batch verification                       *)
(* --------------------------------------------------------------- *)

type verify_ablation = {
  policies_checked : int;
  batch_s : float;
  continuous_s : float;
  actions : int;
}

let ablation_verify () =
  let net, policies = university () in
  let issue = List.nth (University.issues net) 1 (* ospf *) in
  let broken = issue.Issue.inject net in
  let actions = List.length issue.Issue.fix_commands in
  (* Each verification is from scratch: a fresh engine shares no cache
     with the previous one. *)
  let check () =
    let engine = Engine.create ~domains:1 () in
    ignore (Policy.check_all ~engine (Engine.dataplane engine broken) policies)
  in
  let (), batch_s = Clock.elapsed check in
  let (), continuous_s =
    Clock.elapsed (fun () ->
        for _ = 1 to actions do
          check ()
        done)
  in
  { policies_checked = List.length policies; batch_s; continuous_s; actions }

let render_ablation_verify a =
  Printf.sprintf
    "Verification ablation (university, %d policies):\n\
    \  batch (verify once at ticket close): %.3f s\n\
    \  continuous (verify after each of %d actions): %.3f s  (%.1fx slower)\n"
    a.policies_checked a.batch_s a.actions a.continuous_s
    (a.continuous_s /. max 1e-9 a.batch_s)

(* --------------------------------------------------------------- *)
(* Ablation: slicer strategies                                      *)
(* --------------------------------------------------------------- *)

type slicer_ablation_row = {
  strategy : string;
  mean_slice_nodes : float;
  network_nodes : int;
  repair_feasible_pct : float;
}

let ablation_slicer () =
  let ent, _ = enterprise () in
  let uni, _ = university () in
  let cases =
    List.map (fun i -> (ent, i)) (Enterprise.issues ent)
    @ List.map (fun i -> (uni, i)) (University.issues uni)
  in
  let strategies =
    [
      Heimdall_twin.Slicer.All;
      Heimdall_twin.Slicer.Neighbor;
      Heimdall_twin.Slicer.Path;
      Heimdall_twin.Slicer.Task;
    ]
  in
  List.map
    (fun strategy ->
      let sizes, feasible =
        List.fold_left
          (fun (sizes, feasible) (net, (issue : Issue.t)) ->
            let broken = issue.inject net in
            let slice =
              Heimdall_twin.Slicer.slice strategy broken
                ~endpoints:issue.ticket.endpoints
            in
            ( List.length slice :: sizes,
              (if List.mem issue.root_cause slice then 1 else 0) :: feasible ))
          ([], []) cases
      in
      let n = float_of_int (List.length cases) in
      {
        strategy = Heimdall_twin.Slicer.strategy_to_string strategy;
        mean_slice_nodes =
          float_of_int (List.fold_left ( + ) 0 sizes) /. n;
        network_nodes =
          (Topology.node_count (Network.topology ent)
          + Topology.node_count (Network.topology uni))
          / 2;
        repair_feasible_pct = 100.0 *. float_of_int (List.fold_left ( + ) 0 feasible) /. n;
      })
    strategies

let render_ablation_slicer rows =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    "Slicer ablation (6 issues across both networks):\n\
     Strategy  Mean slice nodes  Root cause in slice(%)\n";
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "%-9s %17.1f  %21.1f\n" r.strategy r.mean_slice_nodes
           r.repair_feasible_pct))
    rows;
  Buffer.contents buf

(* --------------------------------------------------------------- *)
(* Ablation: audit + enclave overhead                               *)
(* --------------------------------------------------------------- *)

type audit_ablation = {
  records : int;
  append_per_s : float;
  verify_s : float;
  seal_unseal_s : float;
  tamper_detected : bool;
}

let ablation_audit () =
  let open Heimdall_enforcer in
  let records = 1000 in
  let audit = ref Audit.empty in
  let (), append_s =
    Clock.elapsed (fun () ->
        for i = 1 to records do
          audit :=
            Audit.append ~actor:"tech" ~action:"acl.rule" ~resource:"r8"
              ~detail:
                (Printf.sprintf "configure access-list SRV_PROT %d permit ip any any" i)
              ~verdict:"allowed" !audit
        done)
  in
  let verified, verify_s = Clock.elapsed (fun () -> Audit.verify !audit = Ok ()) in
  let enclave = Enforcer.default_enclave in
  let iterations = 100 in
  let (), seal_total_s =
    Clock.elapsed (fun () ->
        for _ = 1 to iterations do
          let sealed = Enclave.seal enclave (Audit.head !audit) in
          match Enclave.unseal enclave sealed with
          | Ok _ -> ()
          | Error m -> invalid_arg m
        done)
  in
  let seal_unseal_s = seal_total_s /. float_of_int iterations in
  let tampered =
    Audit.tamper 500 (fun r -> { r with Audit.verdict = "denied" }) !audit
  in
  {
    records;
    append_per_s = float_of_int records /. max 1e-9 append_s;
    verify_s;
    seal_unseal_s;
    tamper_detected = verified && Audit.verify tampered <> Ok ();
  }

let render_ablation_audit a =
  Printf.sprintf
    "Audit/enclave ablation:\n\
    \  append throughput: %.0f records/s\n\
    \  verify %d-record chain: %.4f s\n\
    \  seal+unseal audit head: %.6f s/op\n\
    \  in-place tamper detected: %b\n"
    a.append_per_s a.records a.verify_s a.seal_unseal_s a.tamper_detected

(* --------------------------------------------------------------- *)
(* Campaign                                                          *)
(* --------------------------------------------------------------- *)

let campaign ~engine ?seed ?tickets ?malicious_pct () =
  let net, policies = enterprise () in
  Campaign.run ~engine ?seed ?tickets ?malicious_pct net policies (Enterprise.issues net)

(* --------------------------------------------------------------- *)
(* Attack containment                                               *)
(* --------------------------------------------------------------- *)

type containment = {
  scenario : string;
  baseline_leaked : int;
  baseline_damage : int;
  heimdall_leaked : int;
  heimdall_damage : int;
  heimdall_blocked : bool;
}

let exfiltration_scenario () =
  let net, policies = enterprise () in
  let routers =
    Network.node_names net
    |> List.filter (fun n -> Network.kind n net = Some Topology.Router)
  in
  (* Baseline: full RMM access. *)
  let baseline_session = Rmm.open_direct_session net in
  let baseline = Attacks.exfiltrate ~production:net ~targets:routers baseline_session in
  (* Heimdall: the attacker holds a twin session for a VLAN ticket. *)
  let ticket = (List.nth (Enterprise.issues net) 0).Issue.ticket in
  let session, _ = Selfcheck.twin_session net ticket in
  let heimdall = Attacks.exfiltrate ~production:net ~targets:routers session in
  ignore policies;
  {
    scenario = "APT10-style data exfiltration";
    baseline_leaked = List.length baseline.leaked;
    baseline_damage = 0;
    heimdall_leaked = List.length heimdall.leaked;
    heimdall_damage = 0;
    heimdall_blocked = heimdall.leaked = [] && heimdall.denied > 0;
  }

let malicious_acl_scenario ~engine () =
  let net, policies = enterprise () in
  let commands =
    Attacks.malicious_acl_commands ~acl:"SRV_PROT" ~seq:5
      ~src:(Prefix.of_string "10.1.10.0/24") ~dst:Enterprise.sensitive_subnet ~node:"r8"
  in
  (* Baseline: the rogue rule lands in production directly. *)
  let baseline_session = Rmm.open_direct_session net in
  let (_ : (string, Heimdall_twin.Session.error) result list) =
    Heimdall_twin.Session.exec_many baseline_session commands
  in
  let baseline_after = Rmm.resulting_network baseline_session in
  let baseline_damage = Attacks.policy_damage ~engine ~policies ~before:net ~after:baseline_after in
  (* Heimdall: same commands inside a twin for a server-connectivity
     ticket; the monitor allows them (acl edits are in-class), but the
     enforcer's policy verification rejects the import. *)
  let ticket =
    Ticket.make ~id:"ENT-900" ~kind:Ticket.Connectivity
      ~description:"h1 reports intermittent access to the web server"
      ~endpoints:[ "h1"; "h8" ]
  in
  let session, privilege = Selfcheck.twin_session net ticket in
  let (_ : (string, Heimdall_twin.Session.error) result list) =
    Heimdall_twin.Session.exec_many session commands
  in
  let outcome =
    Heimdall_enforcer.Enforcer.process ~engine ~production:net ~policies ~privilege
      ~session ()
  in
  let heimdall_after =
    Option.value outcome.Heimdall_enforcer.Enforcer.updated ~default:net
  in
  {
    scenario = "malicious ACL rule (insider)";
    baseline_leaked = 0;
    baseline_damage;
    heimdall_leaked = 0;
    heimdall_damage = Attacks.policy_damage ~engine ~policies ~before:net ~after:heimdall_after;
    heimdall_blocked = not outcome.Heimdall_enforcer.Enforcer.approved;
  }

let careless_erase_scenario ~engine () =
  let net, policies = enterprise () in
  (* The technician means to work on the isp ticket (root cause r1) but
     fat-fingers an erase on r4 — the office gateway every S1 host
     depends on (the paper's Figure 3 incident). *)
  let commands = Attacks.erase_gateway_commands ~gateway:"r4" in
  let baseline_session = Rmm.open_direct_session net in
  let (_ : (string, Heimdall_twin.Session.error) result list) =
    Heimdall_twin.Session.exec_many baseline_session commands
  in
  let baseline_after = Rmm.resulting_network baseline_session in
  let baseline_damage = Attacks.policy_damage ~engine ~policies ~before:net ~after:baseline_after in
  let ticket = (List.nth (Enterprise.issues net) 2).Issue.ticket in
  let session, privilege = Selfcheck.twin_session net ticket in
  let (_ : (string, Heimdall_twin.Session.error) result list) =
    Heimdall_twin.Session.exec_many session commands
  in
  let outcome =
    Heimdall_enforcer.Enforcer.process ~engine ~production:net ~policies ~privilege
      ~session ()
  in
  let heimdall_after =
    Option.value outcome.Heimdall_enforcer.Enforcer.updated ~default:net
  in
  {
    scenario = "careless erase on the office gateway";
    baseline_leaked = 0;
    baseline_damage;
    heimdall_leaked = 0;
    heimdall_damage = Attacks.policy_damage ~engine ~policies ~before:net ~after:heimdall_after;
    heimdall_blocked = Heimdall_twin.Session.denied_count session > 0;
  }

let attack_containment ~engine () =
  [
    exfiltration_scenario ();
    malicious_acl_scenario ~engine ();
    careless_erase_scenario ~engine ();
  ]

let render_containment rows =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    "Attack containment (baseline RMM vs Heimdall):\n\
     Scenario                          RMM leaked/damage   Heimdall leaked/damage  Blocked\n";
  List.iter
    (fun c ->
      Buffer.add_string buf
        (Printf.sprintf "%-32s  %8d/%-8d    %10d/%-8d    %b\n" c.scenario c.baseline_leaked
           c.baseline_damage c.heimdall_leaked c.heimdall_damage c.heimdall_blocked))
    rows;
  Buffer.contents buf
