(* Tests for the evaluation networks and the experiment harness: Table-1
   invariants, healthy-network properties, issue coverage on both
   networks, metrics, and experiment renderers. *)

open Heimdall_net
open Heimdall_control
open Heimdall_scenarios

(* The one verification context shared by this file's tests. *)
let engine = Heimdall_verify.Engine.create ~domains:1 ()

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* ---------------- Table 1 invariants ---------------- *)

let test_enterprise_inventory () =
  let net, policies = Experiments.enterprise () in
  let topo = Network.topology net in
  checki "routers" 9 (List.length (Topology.node_names ~kind:Topology.Router topo));
  checki "hosts" 9 (List.length (Topology.node_names ~kind:Topology.Host topo));
  checki "links" 22 (Topology.link_count topo);
  checkb "policy count near paper (21)" true
    (abs (List.length policies - 21) <= 5);
  checkb "validates" true (Network.validate net = Ok ())

let test_university_inventory () =
  let net, policies = Experiments.university () in
  let topo = Network.topology net in
  let routers =
    List.length (Topology.node_names ~kind:Topology.Router topo)
    + List.length (Topology.node_names ~kind:Topology.Firewall topo)
  in
  checki "routers (incl firewall)" 13 routers;
  checki "hosts" 17 (List.length (Topology.node_names ~kind:Topology.Host topo));
  checki "links" 92 (Topology.link_count topo);
  checkb "policy count near paper (175)" true
    (abs (List.length policies - 175) <= 15);
  checkb "validates" true (Network.validate net = Ok ())

let test_networks_healthy () =
  List.iter
    (fun (net, policies) ->
      let dp = Dataplane.compute net in
      let report = Heimdall_verify.Policy.check_all ~engine dp policies in
      checki "no violations when healthy" 0 (List.length report.violations))
    [ Experiments.enterprise (); Experiments.university () ]

let test_networks_deterministic () =
  let a = Enterprise.build () and b = Enterprise.build () in
  checkb "same configs" true
    (List.for_all2
       (fun (n1, c1) (n2, c2) ->
         n1 = n2
         && Heimdall_config.Printer.render c1 = Heimdall_config.Printer.render c2)
       (Network.configs a) (Network.configs b))

let test_all_interfaces_subnet_consistent () =
  (* Every wired L3 link joins a /30 or shares a subnet — validate covers
     this; here we also check transit subnets are unique. *)
  let net, _ = Experiments.university () in
  let subnets =
    List.concat_map
      (fun (_, cfg) ->
        List.filter_map
          (fun (i : Heimdall_config.Ast.interface) ->
            Option.map (fun a -> Prefix.to_string (Ifaddr.subnet a)) i.addr)
          cfg.Heimdall_config.Ast.interfaces)
      (Network.configs net)
  in
  let by_subnet = Hashtbl.create 64 in
  List.iter
    (fun s -> Hashtbl.replace by_subnet s (1 + Option.value (Hashtbl.find_opt by_subnet s) ~default:0))
    subnets;
  (* A /30 transit subnet must appear exactly twice; host subnets at
     least twice (SVI + hosts). *)
  Hashtbl.iter
    (fun s n ->
      (* Only the auto-allocated 10.200.x.y/30 transits; the upstream
         203.0.113.0/30 has one (unwired) end by design. *)
      if String.length s > 7 && String.sub s 0 7 = "10.200." then
        checki ("transit " ^ s) 2 n)
    by_subnet

(* ---------------- Issues on both networks ---------------- *)

let test_university_issues () =
  let net, policies = Experiments.university () in
  List.iter
    (fun (issue : Heimdall_msp.Issue.t) ->
      let broken = issue.inject net in
      checkb (issue.name ^ " symptom") true (Heimdall_msp.Issue.symptom_present ~engine issue broken);
      let run = Heimdall_msp.Workflow.run_heimdall ~engine ~production:net ~policies ~issue () in
      checkb (issue.name ^ " resolved") true run.Heimdall_msp.Workflow.resolved)
    (University.issues net)

let test_vlan_issue_root_cause_is_switch () =
  let net, _ = Experiments.university () in
  let issue = List.hd (University.issues net) in
  checkb "switch root cause" true
    (Network.kind issue.Heimdall_msp.Issue.root_cause net = Some Topology.Switch)

(* ---------------- Metrics ---------------- *)

let test_metrics_shapes () =
  let net, policies = Experiments.enterprise () in
  let summaries = Metrics.sweep_all ~engine ~production:net ~policies () in
  checki "three techniques" 3 (List.length summaries);
  let by t =
    List.find (fun (s : Metrics.summary) -> s.technique = t) summaries
  in
  let all = by Metrics.All_access in
  let neighbor = by Metrics.Neighbor_access in
  let heimdall = by Metrics.Heimdall_twin in
  (* The paper's qualitative claims. *)
  checkb "all = 100% feasible" true (all.feasibility_pct = 100.0);
  checkb "all = 100% surface" true (all.attack_surface_pct >= 99.9);
  checkb "heimdall smallest surface" true
    (heimdall.attack_surface_pct < neighbor.attack_surface_pct
    && heimdall.attack_surface_pct < all.attack_surface_pct);
  checkb "heimdall feasibility close to all" true (heimdall.feasibility_pct >= 95.0);
  checkb "neighbor loses feasibility" true (neighbor.feasibility_pct < 100.0);
  checkb "meaningful reduction (>= 30%)" true
    (all.attack_surface_pct -. heimdall.attack_surface_pct >= 30.0)

let test_metrics_point_counts () =
  let net, policies = Experiments.enterprise () in
  let candidates = Metrics.failure_candidates net in
  checkb "many candidates" true (List.length candidates > 20);
  let s = Metrics.sweep ~engine ~production:net ~policies Metrics.Heimdall_twin in
  checki "one point per candidate" (List.length candidates) (List.length s.points)

let test_metrics_surface_bounds () =
  let net, policies = Experiments.enterprise () in
  let summaries = Metrics.sweep_all ~engine ~production:net ~policies () in
  List.iter
    (fun (s : Metrics.summary) ->
      List.iter
        (fun (p : Metrics.point) ->
          checkb "0..100" true (p.attack_surface >= 0.0 && p.attack_surface <= 100.0))
        s.points)
    summaries

(* ---------------- Experiments ---------------- *)

let test_experiments_table1 () =
  let rows = Experiments.table1 () in
  checki "two rows" 2 (List.length rows);
  let rendered = Experiments.render_table1 rows in
  let contains haystack needle =
    let nl = String.length needle and hl = String.length haystack in
    let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
    go 0
  in
  checkb "mentions Enterprise" true (contains rendered "Enterprise");
  checkb "mentions University" true (contains rendered "University")

let test_experiments_fig7 () =
  let cells = Experiments.fig7 ~engine () in
  checki "3 issues x 2 workflows" 6 (List.length cells);
  checkb "all resolved" true (List.for_all (fun c -> c.Experiments.resolved) cells);
  let overheads = Experiments.fig7_overhead cells in
  checki "three overheads" 3 (List.length overheads);
  checkb "all positive" true (List.for_all (fun (_, o) -> o > 0.0) overheads)

let test_experiments_ablations () =
  let v = Experiments.ablation_verify () in
  checkb "continuous slower" true (v.Experiments.continuous_s > v.Experiments.batch_s);
  let rows = Experiments.ablation_slicer () in
  checki "four strategies" 4 (List.length rows);
  let task = List.find (fun r -> r.Experiments.strategy = "task") rows in
  let all = List.find (fun r -> r.Experiments.strategy = "all") rows in
  let neighbor = List.find (fun r -> r.Experiments.strategy = "neighbor") rows in
  checkb "task always repairs" true (task.Experiments.repair_feasible_pct = 100.0);
  checkb "task smaller than all" true
    (task.Experiments.mean_slice_nodes < all.Experiments.mean_slice_nodes);
  checkb "neighbor misses root causes" true
    (neighbor.Experiments.repair_feasible_pct < 100.0);
  let audit = Experiments.ablation_audit () in
  checkb "tamper detected" true audit.Experiments.tamper_detected;
  checkb "appends fast" true (audit.Experiments.append_per_s > 100.0)

let test_experiments_containment () =
  let rows = Experiments.attack_containment ~engine () in
  checki "three scenarios" 3 (List.length rows);
  List.iter
    (fun (c : Experiments.containment) ->
      checkb (c.scenario ^ " blocked") true c.heimdall_blocked;
      checki (c.scenario ^ " heimdall leak-free") 0 c.heimdall_leaked;
      checki (c.scenario ^ " heimdall damage-free") 0 c.heimdall_damage;
      checkb (c.scenario ^ " baseline worse") true
        (c.baseline_leaked > 0 || c.baseline_damage > 0))
    rows

let test_campaign () =
  let tallies = Experiments.campaign ~engine ~tickets:15 ~malicious_pct:30 () in
  checki "two models" 2 (List.length tallies);
  let by m = List.find (fun (t : Campaign.tally) -> t.model = m) tallies in
  let rmm = by Campaign.Rmm_model and heimdall = by Campaign.Heimdall_model in
  (* Same honest workload, same repair rate. *)
  checki "same repairs" rmm.repaired heimdall.repaired;
  checkb "rmm leaks" true (rmm.secrets_leaked > 0 || rmm.policies_damaged > 0);
  checki "heimdall leak-free" 0 heimdall.secrets_leaked;
  checki "heimdall damage-free" 0 heimdall.policies_damaged;
  checkb "attacks blocked" true (heimdall.attacks_blocked > 0);
  (* Determinism: same seed, same outcome. *)
  checkb "reproducible" true
    (Experiments.campaign ~engine ~tickets:15 ~malicious_pct:30 ()
    = Experiments.campaign ~engine ~tickets:15 ~malicious_pct:30 ())

let test_campaign_no_issues () =
  let net, policies = Experiments.enterprise () in
  (* An honest repair with no issues to draw from must raise a clear
     [Invalid_argument], not [Division_by_zero]. *)
  (match Campaign.run ~engine ~tickets:5 ~malicious_pct:0 net policies [] with
  | exception Invalid_argument m ->
      checkb "clear message" true
        (String.length m > 0 && String.sub m 0 8 = "Campaign")
  | exception e -> Alcotest.fail ("unexpected exception: " ^ Printexc.to_string e)
  | _ -> Alcotest.fail "expected Invalid_argument");
  (* An all-malicious campaign never draws an issue, so an empty issue
     list is legitimate there. *)
  let tallies = Campaign.run ~engine ~tickets:5 ~malicious_pct:100 net policies [] in
  checki "both models ran" 2 (List.length tallies)

let test_sweep_engine_deterministic () =
  let net, policies = Experiments.enterprise () in
  let seq = Metrics.sweep ~engine ~production:net ~policies Metrics.Heimdall_twin in
  let engine = Heimdall_verify.Engine.create ~domains:4 () in
  let par = Metrics.sweep ~engine ~production:net ~policies Metrics.Heimdall_twin in
  checkb "summaries byte-identical" true (seq = par);
  let stats = Heimdall_verify.Engine.stats engine in
  checkb "trace cache hit" true (stats.Heimdall_verify.Engine.trace_cache_hits > 0);
  checkb "dataplanes built once per point" true
    (stats.Heimdall_verify.Engine.dataplanes_built
    = 1 + List.length (Metrics.failure_candidates net))

let test_sweep_single_engine () =
  (* Regression: sweep used to build one engine for the prepare pass and
     a second for the evaluate pass, so the caches warmed by the sweep
     never reached evaluation.  With one engine, both phases' buckets
     land in the same stats. *)
  let net, policies = Experiments.enterprise () in
  let engine = Heimdall_verify.Engine.create ~domains:1 () in
  ignore (Metrics.sweep ~engine ~production:net ~policies Metrics.All_access);
  let phases =
    List.map fst (Heimdall_verify.Engine.stats engine).Heimdall_verify.Engine.phase_seconds
  in
  checkb "prepare phase recorded" true (List.mem "sweep/prepare" phases);
  checkb "evaluate phase recorded on the same engine" true
    (List.mem "sweep/evaluate-all" phases)

let test_sweep_all_cache_reuse () =
  (* Repeating a full sweep on one engine must answer every dataplane
     from cache: no new builds, positive hit counters, byte-identical
     summaries. *)
  let net, policies = Experiments.university () in
  let open Heimdall_verify in
  Temp_dir.with_temp_dir "heimdall-dpcache-sweep" @@ fun dir ->
  let engine = Engine.create ~domains:1 ~cache_dir:dir () in
  let first = Metrics.sweep_all ~engine ~production:net ~policies () in
  let built_after_first = (Engine.stats engine).Engine.dataplanes_built in
  checkb "first sweep built dataplanes" true (built_after_first > 0);
  let second = Metrics.sweep_all ~engine ~production:net ~policies () in
  let s = Engine.stats engine in
  checkb "summaries byte-identical across runs" true (first = second);
  checki "second sweep built nothing new" built_after_first s.Engine.dataplanes_built;
  checkb "dataplane cache hits recorded" true (s.Engine.dataplane_cache_hits > 0);
  (* A fresh engine over the warm persistent cache builds zero
     dataplanes and still produces identical summaries. *)
  let warm = Engine.create ~domains:1 ~cache_dir:dir () in
  let third = Metrics.sweep_all ~engine:warm ~production:net ~policies () in
  let sw = Engine.stats warm in
  checkb "warm persistent summaries identical" true (first = third);
  checki "warm persistent cache built nothing" 0 sw.Engine.dataplanes_built;
  checkb "persistent hits recorded" true (sw.Engine.dataplane_persistent_hits > 0)

let test_campaign_event_stream () =
  let evs = Campaign.events ~seed:7 ~tickets:50 ~malicious_pct:40 in
  checki "count" 50 (List.length evs);
  let hostile =
    List.length (List.filter (fun (e : Campaign.event) -> e.kind <> Campaign.Honest_repair) evs)
  in
  checkb "roughly 40% hostile" true (hostile > 10 && hostile < 30);
  checkb "different seeds differ" true
    (Campaign.events ~seed:8 ~tickets:50 ~malicious_pct:40 <> evs);
  checkb "all zero pct honest" true
    (List.for_all
       (fun (e : Campaign.event) -> e.kind = Campaign.Honest_repair)
       (Campaign.events ~seed:7 ~tickets:20 ~malicious_pct:0))

let test_scenario_of_name () =
  checki "two scenarios" 2 (List.length Experiments.scenario_names);
  List.iter
    (fun name ->
      match Experiments.scenario_of_name name with
      | None -> Alcotest.fail ("missing scenario " ^ name)
      | Some sc ->
          Alcotest.check Alcotest.string "name carried" name sc.Experiments.scenario_name;
          checkb "has policies" true (sc.Experiments.policies <> []);
          checkb "has issues" true (sc.Experiments.issues <> []))
    Experiments.scenario_names;
  checkb "unknown rejected" true (Experiments.scenario_of_name "datacenter" = None);
  (* The cached record matches the cached pair accessors. *)
  let sc = Option.get (Experiments.scenario_of_name "enterprise") in
  let net, policies = Experiments.enterprise () in
  checkb "same network" true (sc.Experiments.net == net);
  checkb "same policies" true (sc.Experiments.policies == policies)

let suite =
  [
    Alcotest.test_case "enterprise inventory" `Quick test_enterprise_inventory;
    Alcotest.test_case "scenario_of_name" `Quick test_scenario_of_name;
    Alcotest.test_case "university inventory" `Quick test_university_inventory;
    Alcotest.test_case "networks healthy" `Quick test_networks_healthy;
    Alcotest.test_case "networks deterministic" `Quick test_networks_deterministic;
    Alcotest.test_case "transit subnets consistent" `Quick
      test_all_interfaces_subnet_consistent;
    Alcotest.test_case "university issues resolve" `Slow test_university_issues;
    Alcotest.test_case "vlan root cause is a switch" `Quick test_vlan_issue_root_cause_is_switch;
    Alcotest.test_case "metrics qualitative shape" `Slow test_metrics_shapes;
    Alcotest.test_case "metrics point counts" `Quick test_metrics_point_counts;
    Alcotest.test_case "metrics surface bounds" `Quick test_metrics_surface_bounds;
    Alcotest.test_case "experiments table1" `Quick test_experiments_table1;
    Alcotest.test_case "experiments fig7" `Slow test_experiments_fig7;
    Alcotest.test_case "experiments ablations" `Slow test_experiments_ablations;
    Alcotest.test_case "experiments containment" `Slow test_experiments_containment;
    Alcotest.test_case "campaign comparison" `Slow test_campaign;
    Alcotest.test_case "campaign event stream" `Quick test_campaign_event_stream;
    Alcotest.test_case "campaign with no issues" `Quick test_campaign_no_issues;
    Alcotest.test_case "sweep engine deterministic" `Slow test_sweep_engine_deterministic;
    Alcotest.test_case "sweep single engine" `Quick test_sweep_single_engine;
    Alcotest.test_case "sweep_all cache reuse" `Slow test_sweep_all_cache_reuse;
  ]
