(* Cross-module property and integration tests: invariants that tie the
   whole system together, checked over randomised inputs on the real
   evaluation networks. *)

open Heimdall_net
open Heimdall_config
open Heimdall_control
open Heimdall_verify
open Heimdall_privilege
module Enterprise = Heimdall_scenarios.Enterprise

(* The one verification context shared by this file's tests. *)
let engine = Heimdall_verify.Engine.create ~domains:1 ()

let checkb = Alcotest.check Alcotest.bool

let net_and_policies = lazy (Heimdall_scenarios.Experiments.enterprise ())

(* All addressed host pairs, for random flow generation. *)
let host_addrs =
  lazy
    (let net, _ = Lazy.force net_and_policies in
     Network.node_names net
     |> List.filter_map (fun n ->
            if Network.kind n net = Some Topology.Host then Network.host_address n net
            else None))

let arbitrary_host_flow =
  QCheck.map
    (fun (i, j) ->
      let addrs = Lazy.force host_addrs in
      let n = List.length addrs in
      Flow.icmp (List.nth addrs (i mod n)) (List.nth addrs (j mod n)))
    (QCheck.pair QCheck.small_nat QCheck.small_nat)

(* Trace invariants: a delivered flow starts at a node owning the source
   and ends at a node owning the destination; hop count is bounded. *)
let prop_trace_endpoints =
  QCheck.Test.make ~count:100 ~name:"trace endpoints own src/dst" arbitrary_host_flow
    (fun flow ->
      let net, _ = Lazy.force net_and_policies in
      let dp = Dataplane.compute net in
      match Trace.trace dp flow with
      | Trace.Delivered hops ->
          let first = List.hd hops and last = List.nth hops (List.length hops - 1) in
          let owns node addr =
            match Network.owner_of_address addr net with
            | Some (n, _) -> n = node
            | None -> false
          in
          owns first.Trace.node flow.Flow.src
          && owns last.Trace.node flow.Flow.dst
          && List.length hops <= 64
      | Trace.Dropped (_, hops) -> List.length hops <= 65)

(* Tracing is deterministic. *)
let prop_trace_deterministic =
  QCheck.Test.make ~count:50 ~name:"trace deterministic" arbitrary_host_flow (fun flow ->
      let net, _ = Lazy.force net_and_policies in
      let dp = Dataplane.compute net in
      Trace.trace dp flow = Trace.trace dp flow)

(* Random single-interface failures: the dataplane still computes, the
   policy checker still terminates, and every violated policy's reason is
   non-empty. *)
let arbitrary_failure =
  QCheck.map
    (fun i ->
      let net, _ = Lazy.force net_and_policies in
      let candidates = Heimdall_scenarios.Metrics.failure_candidates net in
      List.nth candidates (i mod List.length candidates))
    QCheck.small_nat

let prop_failure_totality =
  QCheck.Test.make ~count:60 ~name:"failure injection is total" arbitrary_failure
    (fun (ep : Topology.endpoint) ->
      let net, policies = Lazy.force net_and_policies in
      match
        Network.apply_changes
          [ Change.v ep.node (Change.Set_interface_enabled { iface = ep.iface; enabled = false }) ]
          net
      with
      | Error _ -> false
      | Ok broken ->
          let report = Policy.check_all ~engine (Dataplane.compute broken) policies in
          List.for_all (fun (_, reason) -> String.length reason > 0) report.violations)

(* Longest-prefix-match lookup agrees with a naive scan over the trie's
   own bindings: filter the prefixes containing the address and keep the
   longest. *)
let arbitrary_ipv4 =
  QCheck.map
    (fun (hi, lo) -> Ipv4.of_int ((hi lsl 16) lor lo))
    (QCheck.pair (QCheck.int_bound 0xFFFF) (QCheck.int_bound 0xFFFF))

let arbitrary_prefix =
  QCheck.map
    (fun (addr, len) -> Prefix.make addr len)
    (QCheck.pair arbitrary_ipv4 (QCheck.int_bound 32))

let prop_trie_lookup_longest_match =
  QCheck.Test.make ~count:300 ~name:"trie lookup = naive longest-prefix scan"
    (QCheck.pair (QCheck.small_list arbitrary_prefix) arbitrary_ipv4)
    (fun (prefixes, addr) ->
      let trie = Prefix_trie.of_list (List.mapi (fun i p -> (p, i)) prefixes) in
      let naive =
        List.fold_left
          (fun best (p, v) ->
            if not (Prefix.contains p addr) then best
            else
              match best with
              | Some (bp, _) when Prefix.length bp >= Prefix.length p -> best
              | _ -> Some (p, v))
          None
          (Prefix_trie.bindings trie)
      in
      match (Prefix_trie.lookup addr trie, naive) with
      | None, None -> true
      | Some (p1, v1), Some (p2, v2) ->
          Prefix.length p1 = Prefix.length p2 && v1 = v2 && Prefix.contains p1 addr
      | Some _, None | None, Some _ -> false)

(* Scheduler equivalence: whatever order the scheduler picks, the final
   network equals applying the whole batch at once. *)
let benign_changes =
  [
    Change.v "r4" (Change.Set_ospf_cost { iface = "eth0"; cost = Some 20 });
    Change.v "r5" (Change.Set_ospf_cost { iface = "eth0"; cost = Some 30 });
    Change.v "r6" (Change.Set_interface_description { iface = "eth0"; description = Some "x" });
    Change.v "r2"
      (Change.Add_static_route
         { Ast.sr_prefix = Prefix.of_string "172.30.0.0/16";
           sr_next_hop = Ipv4.of_string "10.200.0.1";
           sr_distance = 5 });
  ]

let prop_scheduler_equiv_batch =
  QCheck.Test.make ~count:40 ~name:"scheduler result = batch apply"
    (QCheck.list_of_size (QCheck.Gen.int_range 0 4)
       (QCheck.int_bound (List.length benign_changes - 1)))
    (fun picks ->
      let net, policies = Lazy.force net_and_policies in
      (* Dedup (same change twice is fine but keep it simple). *)
      let changes =
        List.sort_uniq compare picks |> List.map (List.nth benign_changes)
      in
      match Heimdall_enforcer.Scheduler.plan ~engine ~production:net ~policies ~changes () with
      | Error _ -> false
      | Ok (plan, final) ->
          let batch = Result.get_ok (Network.apply_changes changes net) in
          List.length plan.Heimdall_enforcer.Scheduler.steps = List.length changes
          && List.for_all2
               (fun (n1, c1) (n2, c2) -> n1 = n2 && Ast.equal c1 c2)
               (Network.configs final) (Network.configs batch))

(* The reference monitor never raises, whatever garbage comes in. *)
let prop_session_total =
  QCheck.Test.make ~count:200 ~name:"session exec total on arbitrary input"
    QCheck.printable_string (fun line ->
      let net, _ = Lazy.force net_and_policies in
      let em = Heimdall_twin.Twin.build ~production:net ~endpoints:[ "h1"; "h2" ] () in
      let session = Heimdall_twin.Twin.open_session ~privilege:Privilege.allow_all em in
      match Heimdall_twin.Session.exec session line with
      | Ok _ | Error _ -> true)

(* Monitor soundness: under a random subset of allowed action classes,
   every executed configuration command's extracted change is one the
   privilege spec allows — i.e. nothing slips past the monitor. *)
let action_classes =
  [| "interface.*"; "acl.*"; "route.*"; "ospf.*"; "vlan.*" |]

let prop_monitor_soundness =
  QCheck.Test.make ~count:40 ~name:"monitor never lets disallowed changes through"
    (QCheck.pair
       (QCheck.list_of_size (QCheck.Gen.int_range 0 3)
          (QCheck.int_bound (Array.length action_classes - 1)))
       (QCheck.int_bound 2))
    (fun (class_picks, issue_idx) ->
      let net, _ = Lazy.force net_and_policies in
      let issue = List.nth (Enterprise.issues net) issue_idx in
      let broken = issue.Heimdall_msp.Issue.inject net in
      let allowed_classes =
        List.sort_uniq compare (List.map (Array.get action_classes) class_picks)
      in
      let privilege =
        Privilege.of_predicates
          (Privilege.allow ~actions:[ "show.*"; "diag.*" ] ~nodes:[ "*" ] ()
           ::
           (if allowed_classes = [] then []
            else [ Privilege.allow ~actions:allowed_classes ~nodes:[ "*" ] () ]))
      in
      let em =
        Heimdall_twin.Twin.build ~production:broken
          ~endpoints:issue.Heimdall_msp.Issue.ticket.endpoints ()
      in
      let session = Heimdall_twin.Twin.open_session ~privilege em in
      ignore (Heimdall_twin.Session.exec_many session issue.Heimdall_msp.Issue.fix_commands);
      let changes = Heimdall_twin.Emulation.changes (Heimdall_twin.Session.emulation session) in
      List.for_all
        (fun (c : Change.t) ->
          Privilege.allows privilege
            (Privilege.request
               ?iface:(Change.target_iface c.op)
               (Change.op_action_name c.op) c.node))
        changes)

(* Enforcer safety: whenever the enforcer approves a session, every
   policy that held on production still holds afterwards. *)
let prop_enforcer_preserves_held_policies =
  QCheck.Test.make ~count:20 ~name:"approved import preserves held policies"
    (QCheck.int_bound 2) (fun issue_idx ->
      let net, policies = Lazy.force net_and_policies in
      let issue = List.nth (Enterprise.issues net) issue_idx in
      let broken = issue.Heimdall_msp.Issue.inject net in
      let run =
        Heimdall_msp.Workflow.run_heimdall ~engine ~production:net ~policies ~issue ()
      in
      match run.Heimdall_msp.Workflow.outcome with
      | Some outcome when outcome.Heimdall_enforcer.Enforcer.approved -> (
          match outcome.Heimdall_enforcer.Enforcer.updated with
          | None -> false
          | Some updated ->
              let held_before =
                let report = Policy.check_all ~engine (Dataplane.compute broken) policies in
                List.filter
                  (fun p ->
                    not
                      (List.exists (fun (q, _) -> Policy.equal p q)
                         report.Policy.violations))
                  policies
              in
              let after = Policy.check_all ~engine (Dataplane.compute updated) policies in
              List.for_all
                (fun p ->
                  not
                    (List.exists (fun (q, _) -> Policy.equal p q) after.Policy.violations))
                held_before)
      | _ -> false)

(* Slicer monotonicity & containment. *)
let prop_slicer_invariants =
  QCheck.Test.make ~count:40 ~name:"slicer containment invariants"
    (QCheck.pair QCheck.small_nat QCheck.small_nat) (fun (i, j) ->
      let net, _ = Lazy.force net_and_policies in
      let hosts =
        List.filter
          (fun n -> Network.kind n net = Some Topology.Host)
          (Network.node_names net)
      in
      let a = List.nth hosts (i mod List.length hosts) in
      let b = List.nth hosts (j mod List.length hosts) in
      let endpoints = [ a; b ] in
      let slice s = Heimdall_twin.Slicer.slice s net ~endpoints in
      let all = slice Heimdall_twin.Slicer.All in
      let task = slice Heimdall_twin.Slicer.Task in
      let path = slice Heimdall_twin.Slicer.Path in
      let subset xs ys = List.for_all (fun x -> List.mem x ys) xs in
      subset task all && subset path all
      && List.mem a task && List.mem b task
      && subset path task)

(* Twin sessions never leak any secret of any production device, under
   arbitrary command subsets of a fixed exploratory script. *)
let exploration_script =
  [
    "connect r4"; "show running-config"; "show interfaces"; "show ip route";
    "show access-lists"; "show vlan"; "show topology"; "connect h2";
    "show running-config"; "ping 10.1.20.11"; "traceroute 10.1.20.11";
    "connect r5"; "show running-config"; "show ip ospf neighbors";
  ]

let prop_no_secret_leakage =
  QCheck.Test.make ~count:30 ~name:"twin sessions never leak secrets"
    (QCheck.list_of_size (QCheck.Gen.int_range 1 8)
       (QCheck.int_bound (List.length exploration_script - 1)))
    (fun picks ->
      let net, _ = Lazy.force net_and_policies in
      let em = Heimdall_twin.Twin.build ~production:net ~endpoints:[ "h2"; "h3" ] () in
      let session = Heimdall_twin.Twin.open_session ~privilege:Privilege.allow_all em in
      let outputs =
        List.filter_map
          (fun i ->
            Result.to_option
              (Heimdall_twin.Session.exec session (List.nth exploration_script i)))
          picks
      in
      let blob = String.concat "" outputs in
      List.for_all
        (fun (_, prod) -> Redact.leaked_secrets ~production:prod blob = [])
        (Network.configs net))

(* Loader round-trip on randomly mutated enterprise networks. *)
let prop_loader_roundtrip =
  QCheck.Test.make ~count:20 ~name:"loader text roundtrip after mutations"
    (QCheck.list_of_size (QCheck.Gen.int_range 0 3)
       (QCheck.int_bound (List.length benign_changes - 1)))
    (fun picks ->
      let net, _ = Lazy.force net_and_policies in
      let changes = List.sort_uniq compare picks |> List.map (List.nth benign_changes) in
      let mutated = Result.get_ok (Network.apply_changes changes net) in
      (* Serialise through the loader's text formats and compare. *)
      let topo = Network.topology mutated in
      let buf = Buffer.create 512 in
      List.iter
        (fun (n : Topology.node) ->
          Buffer.add_string buf
            (Printf.sprintf "node %s %s\n" n.name (Topology.node_kind_to_string n.kind)))
        (Topology.nodes topo);
      List.iter
        (fun (l : Topology.link) ->
          Buffer.add_string buf
            (Printf.sprintf "link %s %s\n"
               (Topology.endpoint_to_string l.a)
               (Topology.endpoint_to_string l.b)))
        (Topology.links topo);
      let configs =
        List.map (fun (n, c) -> (n, Printer.render c)) (Network.configs mutated)
      in
      match Loader.load ~topology:(Buffer.contents buf) ~configs with
      | Error _ -> false
      | Ok loaded ->
          List.for_all2
            (fun (n1, c1) (n2, c2) -> n1 = n2 && Ast.equal c1 c2)
            (Network.configs mutated) (Network.configs loaded))

(* Diff/apply round-trip: for any config reachable from a base by a
   sequence of ops, [apply_all (diff base after)] reconstructs [after]
   up to normalization.  This is the contract the plan analyzer's
   predicted-diff requirements rest on. *)
let roundtrip_ops =
  let rule seq action =
    Acl.rule ~proto:(Acl.Proto Flow.Tcp) ~dst_port:(Acl.Eq 443) ~seq action
      (Prefix.of_string "10.9.0.0/16")
      Prefix.any
  in
  [|
    Change.Set_interface_enabled { iface = "eth0"; enabled = false };
    Change.Set_interface_enabled { iface = "eth0"; enabled = true };
    Change.Set_interface_addr
      { iface = "eth1"; addr = Some (Ifaddr.of_string "10.77.0.1/24") };
    Change.Set_interface_description { iface = "eth0"; description = Some "lab" };
    Change.Set_interface_description { iface = "eth0"; description = None };
    Change.Set_ospf_cost { iface = "eth0"; cost = Some 42 };
    Change.Set_ospf_cost { iface = "eth0"; cost = None };
    Change.Set_ospf_area { iface = "eth1"; area = Some 7 };
    Change.Set_acl_binding { iface = "eth0"; dir = `In; acl = Some "RT_ACL" };
    Change.Set_acl_binding { iface = "eth0"; dir = `In; acl = None };
    Change.Acl_set_rule { acl = "RT_ACL"; rule = rule 10 Acl.Permit };
    Change.Acl_set_rule { acl = "RT_ACL"; rule = rule 20 Acl.Deny };
    Change.Acl_remove_rule { acl = "RT_ACL"; seq = 10 };
    Change.Acl_remove { acl = "RT_ACL" };
    Change.Add_static_route
      { Ast.sr_prefix = Prefix.of_string "172.31.0.0/16";
        sr_next_hop = Ipv4.of_string "10.200.0.9";
        sr_distance = 3 };
    Change.Remove_static_route
      { prefix = Prefix.of_string "172.31.0.0/16";
        next_hop = Ipv4.of_string "10.200.0.9" };
    Change.Set_default_gateway (Some (Ipv4.of_string "10.1.1.1"));
    Change.Set_default_gateway None;
    Change.Ospf_set_network { prefix = Prefix.of_string "10.66.0.0/16"; area = 0 };
    Change.Ospf_remove_network { prefix = Prefix.of_string "10.66.0.0/16" };
    Change.Set_vlan_name { vlan = 77; name = Some "lab" };
    Change.Set_vlan_name { vlan = 77; name = None };
    Change.Set_secret (Ast.Enable_secret "s3cr3t");
    Change.Set_secret (Ast.Snmp_community "comm77");
  |]

let prop_diff_apply_roundtrip =
  QCheck.Test.make ~count:300 ~name:"apply_all (diff a b) reconstructs b"
    (QCheck.pair
       (QCheck.oneofl [ "r2"; "r4"; "r5" ])
       (QCheck.list_of_size (QCheck.Gen.int_range 0 12)
          (QCheck.int_bound (Array.length roundtrip_ops - 1))))
    (fun (node, picks) ->
      let net, _ = Lazy.force net_and_policies in
      let base = Option.get (Network.config node net) in
      (* Ops whose precondition fails (e.g. removing an absent rule) are
         skipped; the rest drive [base] to a random reachable [after]. *)
      let after =
        List.fold_left
          (fun cfg i ->
            match Change.apply roundtrip_ops.(i) cfg with
            | Ok cfg' -> cfg'
            | Error _ -> cfg)
          base picks
      in
      let changes = Change.diff ~node base after in
      let lookup n = if n = node then Some base else None in
      match Change.apply_all changes lookup with
      | Error _ -> false
      | Ok results ->
          let rebuilt =
            match List.assoc_opt node results with Some c -> c | None -> base
          in
          Ast.equal rebuilt after)

let test_dataplane_rebuild_stable () =
  (* Computing the dataplane twice yields identical route tables. *)
  let net, _ = Lazy.force net_and_policies in
  let dp1 = Dataplane.compute net and dp2 = Dataplane.compute net in
  List.iter
    (fun node ->
      let r1 = List.map Fib.route_to_string (Fib.routes (Dataplane.fib node dp1)) in
      let r2 = List.map Fib.route_to_string (Fib.routes (Dataplane.fib node dp2)) in
      checkb node true (r1 = r2))
    (Network.node_names net)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_trace_endpoints;
    QCheck_alcotest.to_alcotest prop_trace_deterministic;
    QCheck_alcotest.to_alcotest prop_failure_totality;
    QCheck_alcotest.to_alcotest prop_trie_lookup_longest_match;
    QCheck_alcotest.to_alcotest prop_scheduler_equiv_batch;
    QCheck_alcotest.to_alcotest prop_session_total;
    QCheck_alcotest.to_alcotest prop_monitor_soundness;
    QCheck_alcotest.to_alcotest prop_enforcer_preserves_held_policies;
    QCheck_alcotest.to_alcotest prop_slicer_invariants;
    QCheck_alcotest.to_alcotest prop_no_secret_leakage;
    QCheck_alcotest.to_alcotest prop_loader_roundtrip;
    QCheck_alcotest.to_alcotest prop_diff_apply_roundtrip;
    Alcotest.test_case "dataplane rebuild stable" `Quick test_dataplane_rebuild_stable;
  ]
