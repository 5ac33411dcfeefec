(* Tests for the verification layer: flow tracing, policies, and the
   spec miner, using the triangle fixture and the enterprise network. *)

open Heimdall_net
open Heimdall_config
open Heimdall_control
open Heimdall_verify
module B = Heimdall_scenarios.Builder

(* The one verification context shared by this file's tests. *)
let engine = Heimdall_verify.Engine.create ~domains:1 ()

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let ip = Ipv4.of_string
let pfx = Prefix.of_string
let ia = Ifaddr.of_string

let triangle () =
  let b = B.create () in
  List.iter (B.router b) [ "r1"; "r2"; "r3" ];
  B.switch b "sw1";
  ignore (B.p2p ~area:0 ~cost:10 b "r1" "r2");
  ignore (B.p2p ~area:0 ~cost:1 b "r1" "r3");
  ignore (B.p2p ~area:0 ~cost:1 b "r2" "r3");
  B.routed_host ~area:0 b ~host_name:"h1" ~dev:"r1" ~subnet:(pfx "10.1.0.0/24") ~host_octet:10;
  B.routed_host ~area:0 b ~host_name:"h2" ~dev:"r2" ~subnet:(pfx "10.2.0.0/24") ~host_octet:10;
  B.svi ~area:0 b "r3" 10 (ia "10.3.0.1/24");
  B.trunk_link b "sw1" "r3" ~vlans:[ 10 ];
  B.attach_host b ~host_name:"h3" ~dev:"sw1" ~vlan:10 ~addr:(ia "10.3.0.10/24")
    ~gateway:(ip "10.3.0.1");
  B.build b

let trace net flow = Trace.trace (Dataplane.compute net) flow

(* ---------------- Trace ---------------- *)

let test_trace_delivery () =
  let net = triangle () in
  let result = trace net (Flow.icmp (ip "10.1.0.10") (ip "10.2.0.10")) in
  checkb "delivered" true (Trace.is_delivered result);
  (* Path: h1 -> r1 -> r3 -> r2 -> h2 (low-cost route via r3). *)
  let nodes = Trace.nodes_on_path result in
  checkb "via r3" true (List.mem "r3" nodes);
  checkb "starts at h1" true (List.hd nodes = "h1")

let test_trace_l2_path_records_switch () =
  let net = triangle () in
  let result = trace net (Flow.icmp (ip "10.1.0.10") (ip "10.3.0.10")) in
  checkb "delivered" true (Trace.is_delivered result);
  checkb "switch on path" true (List.mem "sw1" (Trace.nodes_on_path result))

let test_trace_same_subnet_l2 () =
  let net = triangle () in
  (* Two hosts on the same subnet talk purely at L2; add one more host. *)
  let result = trace net (Flow.icmp (ip "10.3.0.10") (ip "10.3.0.1")) in
  checkb "host to gateway" true (Trace.is_delivered result)

let test_trace_unknown_source () =
  let net = triangle () in
  match trace net (Flow.icmp (ip "172.16.0.1") (ip "10.2.0.10")) with
  | Trace.Dropped (Trace.Unknown_source _, _) -> ()
  | _ -> Alcotest.fail "expected unknown source"

let test_trace_no_route () =
  let net = triangle () in
  (* Routers have no default route: an unknown destination dies at the
     first router. *)
  match trace net (Flow.icmp (ip "10.1.0.10") (ip "172.16.0.1")) with
  | Trace.Dropped (Trace.No_route { node = "r1" }, _) -> ()
  | Trace.Dropped (r, _) -> Alcotest.fail (Trace.drop_reason_to_string r)
  | Trace.Delivered _ -> Alcotest.fail "delivered?!"

let test_trace_acl_deny_inbound () =
  let net = triangle () in
  let acl =
    Acl.make "NO_ICMP"
      [
        Acl.rule ~proto:(Acl.Proto Flow.Icmp) ~seq:10 Acl.Deny Prefix.any Prefix.any;
        Acl.rule ~seq:20 Acl.Permit Prefix.any Prefix.any;
      ]
  in
  let cfg = Network.config_exn "r2" net in
  let cfg = Ast.update_acl acl cfg in
  let cfg =
    Ast.update_interface
      { (Option.get (Ast.find_interface "eth1" cfg)) with Ast.acl_in = Some "NO_ICMP" }
      cfg
  in
  let net = Network.with_config "r2" cfg net in
  (match trace net (Flow.icmp (ip "10.1.0.10") (ip "10.2.0.10")) with
  | Trace.Dropped (Trace.Acl_denied { node = "r2"; dir = Trace.In; acl = "NO_ICMP"; rule_seq = Some 10; _ }, _) ->
      ()
  | Trace.Dropped (r, _) -> Alcotest.fail (Trace.drop_reason_to_string r)
  | Trace.Delivered _ -> Alcotest.fail "not denied");
  (* TCP is unaffected. *)
  checkb "tcp passes" true
    (Trace.is_delivered (trace net (Flow.tcp ~dst_port:80 (ip "10.1.0.10") (ip "10.2.0.10"))))

let test_trace_dangling_acl_fails_closed () =
  let net = triangle () in
  let cfg = Network.config_exn "r2" net in
  let cfg =
    Ast.update_interface
      { (Option.get (Ast.find_interface "eth1" cfg)) with Ast.acl_in = Some "GHOST" }
      cfg
  in
  let net = Network.with_config "r2" cfg net in
  match trace net (Flow.icmp (ip "10.1.0.10") (ip "10.2.0.10")) with
  | Trace.Dropped (Trace.Acl_denied { acl = "GHOST"; rule_seq = None; _ }, _) -> ()
  | _ -> Alcotest.fail "expected fail-closed deny"

let test_trace_downed_interface () =
  let net = triangle () in
  let broken =
    Result.get_ok
      (Network.apply_changes
         [
           Change.v "r3" (Change.Set_interface_enabled { iface = "eth0"; enabled = false });
           Change.v "r3" (Change.Set_interface_enabled { iface = "eth1"; enabled = false });
         ]
         net)
  in
  (* The cheap path died; traffic must fall back to the expensive r1-r2
     link and still arrive. *)
  checkb "rerouted" true
    (Trace.is_delivered (trace broken (Flow.icmp (ip "10.1.0.10") (ip "10.2.0.10"))))

let test_trace_ttl_loop () =
  (* Two routers with static routes pointing at each other for a prefix
     neither owns: a forwarding loop. *)
  let b = B.create () in
  List.iter (B.router b) [ "ra"; "rb" ];
  let subnet = B.p2p b "ra" "rb" in
  B.routed_host b ~host_name:"hh" ~dev:"ra" ~subnet:(pfx "10.50.0.0/24") ~host_octet:10;
  B.static_route b "ra" (pfx "10.60.0.0/24") (Prefix.host subnet 2);
  B.static_route b "rb" (pfx "10.60.0.0/24") (Prefix.host subnet 1);
  let net = B.build b in
  match trace net (Flow.icmp (ip "10.50.0.10") (ip "10.60.0.1")) with
  | Trace.Dropped (Trace.Ttl_exceeded, hops) -> checkb "many hops" true (List.length hops > 10)
  | _ -> Alcotest.fail "expected loop"

(* ---------------- Policy ---------------- *)

(* One policy judged on one trace of its flow, outside any engine. *)
let verdict dp (p : Policy.t) = Policy.verdict_of_trace p (Trace.trace dp p.flow)

let test_policy_check () =
  let net = triangle () in
  let dp = Dataplane.compute net in
  let reach =
    Policy.reachable ~src_label:"h1" ~dst_label:"h2" (Flow.icmp (ip "10.1.0.10") (ip "10.2.0.10"))
  in
  let isolated =
    Policy.isolated ~src_label:"h1" ~dst_label:"h2" (Flow.icmp (ip "10.1.0.10") (ip "10.2.0.10"))
  in
  checkb "reach holds" true (verdict dp reach = Policy.Holds);
  checkb "isolated violated" true
    (match verdict dp isolated with Policy.Violated _ -> true | Policy.Holds -> false)

let test_policy_waypoint () =
  let net = triangle () in
  let dp = Dataplane.compute net in
  let via_r3 =
    Policy.waypoint ~src_label:"h1" ~dst_label:"h2" ~via:"r3"
      (Flow.icmp (ip "10.1.0.10") (ip "10.2.0.10"))
  in
  checkb "via r3 holds" true (verdict dp via_r3 = Policy.Holds);
  let via_sw =
    Policy.waypoint ~src_label:"h1" ~dst_label:"h2" ~via:"sw1"
      (Flow.icmp (ip "10.1.0.10") (ip "10.2.0.10"))
  in
  checkb "via sw1 violated" true
    (match verdict dp via_sw with Policy.Violated _ -> true | Policy.Holds -> false)

let test_policy_check_all () =
  let net = triangle () in
  let dp = Dataplane.compute net in
  let ps =
    [
      Policy.reachable ~src_label:"a" ~dst_label:"b" (Flow.icmp (ip "10.1.0.10") (ip "10.2.0.10"));
      Policy.isolated ~src_label:"a" ~dst_label:"b" (Flow.icmp (ip "10.1.0.10") (ip "10.3.0.10"));
    ]
  in
  let report = Policy.check_all ~engine dp ps in
  checki "total" 2 report.Policy.total;
  checki "violations" 1 (List.length report.Policy.violations);
  checkb "holds_all false" false (Policy.holds_all ~engine dp ps)

let test_policy_ids_unique () =
  let _, policies = Heimdall_scenarios.Experiments.enterprise () in
  let ids = List.map (fun (p : Policy.t) -> p.id) policies in
  checki "unique ids" (List.length ids) (List.length (List.sort_uniq String.compare ids))

(* ---------------- Reachability ---------------- *)

let test_reach_diff_union () =
  let net = triangle () in
  (* [before] lacks h3 entirely (restricted network): every h3 pair is
     present only in [after] and must still show up as gained. *)
  let small = Network.restrict [ "r1"; "r2"; "r3"; "sw1"; "h1"; "h2" ] net in
  let before = Reachability.compute ~engine (Dataplane.compute small) in
  let after = Reachability.compute ~engine (Dataplane.compute net) in
  let impact = Reachability.diff ~before ~after in
  checkb "gained h1->h3" true (List.mem ("h1", "h3") impact.Reachability.gained);
  checkb "gained h3->h2" true (List.mem ("h3", "h2") impact.Reachability.gained);
  checki "nothing lost" 0 (List.length impact.Reachability.lost);
  (* Symmetric direction: pairs present only in [before] count as lost. *)
  let impact' = Reachability.diff ~before:after ~after:before in
  checkb "lost h1->h3" true (List.mem ("h1", "h3") impact'.Reachability.lost);
  checki "nothing gained" 0 (List.length impact'.Reachability.gained)

let test_reach_impact_of_changes () =
  let net = triangle () in
  (* Downing r2's host-facing interface severs h2's subnet. *)
  let change =
    Change.v "r2" (Change.Set_interface_enabled { iface = "eth2"; enabled = false })
  in
  (match Network.apply_changes [ change ] net with
  | Error m -> Alcotest.fail m
  | Ok updated ->
      let impact = Reachability.impact ~engine ~production:net updated in
      checkb "h1->h2 lost" true (List.mem ("h1", "h2") impact.Reachability.lost);
      checki "nothing gained" 0 (List.length impact.Reachability.gained));
  (* A change against an unknown node surfaces as a clean [Error]. *)
  match
    Network.apply_changes
      [ Change.v "ghost" (Change.Set_interface_enabled { iface = "eth0"; enabled = false }) ]
      net
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected error for unknown node"

(* ---------------- Engine ---------------- *)

let test_engine_caches () =
  let net = triangle () in
  let e = Engine.create ~domains:1 () in
  let dp = Engine.dataplane e net in
  let flow = Flow.icmp (ip "10.1.0.10") (ip "10.2.0.10") in
  let r1 = Engine.trace e dp flow in
  let r2 = Engine.trace e dp flow in
  checkb "repeated trace equal" true (r1 = r2);
  let dp' = Engine.dataplane e net in
  checkb "same dataplane value" true (dp == dp');
  let s = Engine.stats e in
  checki "every trace runs" 2 s.Engine.traces_run;
  checki "dataplanes built" 1 s.Engine.dataplanes_built;
  checki "dataplane cache hits" 1 s.Engine.dataplane_cache_hits;
  Engine.reset_stats e;
  let s = Engine.stats e in
  checki "reset traces" 0 s.Engine.traces_run

let test_engine_map_deterministic () =
  let e1 = Engine.create ~domains:1 () in
  let e4 = Engine.create ~domains:4 () in
  let xs = List.init 100 Fun.id in
  let f x = (x * x) + 1 in
  let seq = List.map f xs in
  checkb "map domains:1" true (Engine.map e1 f xs = seq);
  checkb "map domains:4" true (Engine.map e4 f xs = seq);
  checkb "map empty" true (Engine.map e4 f [] = []);
  checkb "domains recorded" true ((Engine.stats e4).Engine.domains_used > 1)

let test_engine_check_all_matches_sequential () =
  let net, policies = Heimdall_scenarios.Experiments.enterprise () in
  let dp = Dataplane.compute net in
  (* The reference is uncached tracing outside any engine; the file's
     1-domain engine and a 4-domain engine must both agree with it. *)
  let reference =
    List.filter_map
      (fun p -> match verdict dp p with Policy.Holds -> None | Violated r -> Some (p, r))
      policies
  in
  let seq = Policy.check_all ~engine dp policies in
  let engine4 = Engine.create ~domains:4 () in
  let par = Policy.check_all ~engine:engine4 dp policies in
  checki "same total" seq.Policy.total par.Policy.total;
  checkb "1 domain = uncached" true (seq.Policy.violations = reference);
  checkb "same violations" true (seq.Policy.violations = par.Policy.violations);
  let m_seq = Reachability.compute ~engine dp in
  let m_par = Reachability.compute ~engine:engine4 dp in
  let hosts =
    List.filter_map
      (fun n ->
        if Network.kind n net = Some Topology.Host then
          Option.map (fun a -> (n, a)) (Network.host_address n net)
        else None)
      (Network.node_names net)
  in
  let pairs = ref 0 in
  List.iter
    (fun (src, src_addr) ->
      List.iter
        (fun (dst, dst_addr) ->
          if src <> dst then begin
            incr pairs;
            let delivered = Trace.is_delivered (Trace.trace dp (Flow.icmp src_addr dst_addr)) in
            if Reachability.reachable ~src ~dst m_seq <> Some delivered then
              Alcotest.failf "%s -> %s differs from uncached trace" src dst
          end)
        hosts)
    hosts;
  checki "matrix covers every host pair" !pairs (Reachability.pair_count m_seq);
  checki "same pair count" (Reachability.pair_count m_seq) (Reachability.pair_count m_par);
  checki "same reachable count" (Reachability.reachable_count m_seq)
    (Reachability.reachable_count m_par);
  let d = Reachability.diff ~before:m_seq ~after:m_par in
  checkb "matrices identical" true (d.Reachability.gained = [] && d.Reachability.lost = []);
  checkb "engine saw trace work" true ((Engine.stats engine4).Engine.traces_run > 0);
  Engine.shutdown engine4

let test_engine_map_cutoff () =
  (* Small workloads must not pay for a parallel fan-out: below the
     min-per-domain threshold the map runs sequentially on the caller. *)
  let e = Engine.create ~domains:4 () in
  let xs = List.init 8 Fun.id in
  let f x = x * 3 in
  checkb "small map correct" true (Engine.map e f xs = List.map f xs);
  checki "small map stayed sequential" 1 (Engine.stats e).Engine.domains_used;
  checkb "forced parallel correct" true
    (Engine.map ~min_per_domain:1 e f xs = List.map f xs);
  checkb "forced parallel engaged pool" true ((Engine.stats e).Engine.domains_used > 1);
  Engine.shutdown e

let test_engine_pool_reuse () =
  (* One persistent pool serves many maps; shutdown releases it and the
     next map transparently respawns. *)
  let e = Engine.create ~domains:4 () in
  let xs = List.init 64 Fun.id in
  let f x = (x * 7) mod 13 in
  let expected = List.map f xs in
  for _ = 1 to 20 do
    checkb "repeated map identical" true (Engine.map ~min_per_domain:1 e f xs = expected)
  done;
  Engine.shutdown e;
  Engine.shutdown e (* idempotent *);
  checkb "map after shutdown works" true
    (Engine.map ~min_per_domain:1 e f xs = expected);
  Engine.shutdown e

let test_engine_map_exception () =
  let e = Engine.create ~domains:4 () in
  let xs = List.init 64 Fun.id in
  (match Engine.map ~min_per_domain:1 e (fun x -> if x = 40 then failwith "boom" else x) xs with
  | _ -> Alcotest.fail "expected exception from parallel map"
  | exception Failure m -> Alcotest.check Alcotest.string "exception propagated" "boom" m);
  (* The pool must still be usable after a failed map. *)
  checkb "pool survives exception" true (Engine.map ~min_per_domain:1 e Fun.id xs = xs);
  Engine.shutdown e

let test_engine_concurrent_traces () =
  (* 200 traces spread over 4 domains: the atomic counter must see every
     one, and each result must equal a direct [Trace.trace]. *)
  let net = triangle () in
  let e = Engine.create ~domains:4 () in
  let dp = Engine.dataplane e net in
  let flow = Flow.icmp (ip "10.1.0.10") (ip "10.2.0.10") in
  let results =
    Engine.map ~min_per_domain:1 e (fun _ -> Engine.trace e dp flow) (List.init 200 Fun.id)
  in
  let expected = Trace.trace dp flow in
  checkb "every result equals Trace.trace" true
    (List.for_all (fun r -> r = expected) results);
  checki "every trace counted" 200 (Engine.stats e).Engine.traces_run;
  Engine.shutdown e

let test_engine_incremental_dataplane () =
  let net = triangle () in
  let e = Engine.create ~domains:1 () in
  let base = Engine.dataplane e net in
  (* Routing-relevant change: down an interface on r3. *)
  let broken =
    Result.get_ok
      (Network.apply_changes
         [ Change.v "r3" (Change.Set_interface_enabled { iface = "eth0"; enabled = false }) ]
         net)
  in
  let incr_dp = Engine.dataplane ~base e broken in
  let full_dp = Dataplane.compute broken in
  checkb "incremental route counts match full compute" true
    (Dataplane.route_counts incr_dp = Dataplane.route_counts full_dp);
  let flow = Flow.icmp (ip "10.1.0.10") (ip "10.2.0.10") in
  checkb "incremental trace matches full compute" true
    (Trace.trace incr_dp flow = Trace.trace full_dp flow);
  checkb "incremental build counted" true
    ((Engine.stats e).Engine.dataplanes_incremental > 0);
  (* ACL-only change: every FIB must be reused physically. *)
  let cfg = Network.config_exn "r2" net in
  let cfg = { cfg with Ast.acls = Acl.make "NOP" [ Acl.rule ~seq:10 Acl.Permit Prefix.any Prefix.any ] :: cfg.Ast.acls } in
  let acl_net = Network.with_config "r2" cfg net in
  let acl_dp = Engine.dataplane ~base e acl_net in
  checkb "acl-only change reuses fib physically" true
    (Dataplane.fib "r1" acl_dp == Dataplane.fib "r1" base);
  checkb "acl-only change carries new network" true
    (Network.config "r2" (Dataplane.network acl_dp) = Some cfg)

let test_engine_persistent_cache () =
  Temp_dir.with_temp_dir "heimdall-dpcache-test" @@ fun dir ->
  let net = triangle () in
  let e1 = Engine.create ~domains:1 ~cache_dir:dir () in
  let dp1 = Engine.dataplane e1 net in
  checki "first engine built it" 1 (Engine.stats e1).Engine.dataplanes_built;
  (* A fresh engine pointed at the same directory loads instead of
     building. *)
  let e2 = Engine.create ~domains:1 ~cache_dir:dir () in
  let dp2 = Engine.dataplane e2 net in
  let s2 = Engine.stats e2 in
  checki "second engine built nothing" 0 s2.Engine.dataplanes_built;
  checkb "persistent hit counted" true (s2.Engine.dataplane_persistent_hits > 0);
  checkb "loaded dataplane equivalent" true
    (Dataplane.route_counts dp1 = Dataplane.route_counts dp2);
  let flow = Flow.icmp (ip "10.1.0.10") (ip "10.2.0.10") in
  checkb "loaded dataplane traces identically" true
    (Trace.trace dp1 flow = Trace.trace dp2 flow);
  (* An entry written under the previous format version (before the
     dataplane carried its address index) must read as a miss and be
     rebuilt, even though its body is a well-formed marshalled value. *)
  let with_entries f =
    Array.iter
      (fun name -> if Filename.check_suffix name ".dp" then f (Filename.concat dir name))
      (Sys.readdir dir)
  in
  with_entries (fun path ->
      let bytes = In_channel.with_open_bin path In_channel.input_all in
      let header = "heimdall-dpcache-4\n" in
      checkb "entry carries the current header" true (String.starts_with ~prefix:header bytes);
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc "heimdall-dpcache-3\n";
          Out_channel.output_string oc
            (String.sub bytes (String.length header) (String.length bytes - String.length header))));
  let e_stale = Engine.create ~domains:1 ~cache_dir:dir () in
  let dp_stale = Engine.dataplane e_stale net in
  checki "stale-version entry rebuilt" 1 (Engine.stats e_stale).Engine.dataplanes_built;
  checki "stale-version entry not loaded" 0 (Engine.stats e_stale).Engine.dataplane_persistent_hits;
  checkb "rebuilt dataplane traces identically" true
    (Trace.trace dp1 flow = Trace.trace dp_stale flow);
  (* A corrupt cache entry must read as a miss, not an error. *)
  with_entries (fun path ->
      Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc "garbage"));
  let e3 = Engine.create ~domains:1 ~cache_dir:dir () in
  let dp3 = Engine.dataplane e3 net in
  checki "corrupt entry rebuilt" 1 (Engine.stats e3).Engine.dataplanes_built;
  checkb "rebuilt dataplane equivalent" true
    (Dataplane.route_counts dp1 = Dataplane.route_counts dp3)

let test_network_digest () =
  let a = triangle () in
  let b = triangle () in
  checkb "digest deterministic across rebuilds" true (Network.digest a = Network.digest b);
  checkb "no changed devices between equal networks" true
    (Network.changed_devices a b = Some []);
  let broken =
    Result.get_ok
      (Network.apply_changes
         [ Change.v "r3" (Change.Set_interface_enabled { iface = "eth0"; enabled = false }) ]
         a)
  in
  checkb "digest changes with a config change" true
    (Network.digest a <> Network.digest broken);
  checkb "changed device identified" true
    (Network.changed_devices a broken = Some [ "r3" ]);
  checkb "device digest changed" true
    (Network.device_digest "r3" a <> Network.device_digest "r3" broken);
  checkb "untouched device digest stable" true
    (Network.device_digest "r1" a = Network.device_digest "r1" broken);
  (* Reverting the change restores the digest (structural, not historical). *)
  let reverted =
    Result.get_ok
      (Network.apply_changes
         [ Change.v "r3" (Change.Set_interface_enabled { iface = "eth0"; enabled = true }) ]
         broken)
  in
  checkb "digest reverts with the config" true (Network.digest a = Network.digest reverted);
  (* Different node sets are incomparable. *)
  let restricted = Network.restrict [ "r1"; "r2"; "r3"; "sw1"; "h1"; "h2" ] a in
  checkb "different node sets incomparable" true
    (Network.changed_devices a restricted = None)

(* ---------------- Spec miner ---------------- *)

let test_miner_triangle () =
  let net = triangle () in
  let dp = Dataplane.compute net in
  let policies = Spec_miner.mine dp in
  (* 3 host subnets -> 6 ordered pairs, all reachable. *)
  checki "six policies" 6 (List.length policies);
  checkb "all reachable" true
    (List.for_all (fun (p : Policy.t) -> p.intent = Policy.Reachable) policies)

let test_miner_detects_isolation () =
  let net = triangle () in
  (* Deny icmp h1-subnet -> h2-subnet inbound on r2. *)
  let acl =
    Acl.make "ISO"
      [
        Acl.rule ~proto:(Acl.Proto Flow.Icmp) ~seq:10 Acl.Deny (pfx "10.1.0.0/24")
          (pfx "10.2.0.0/24");
        Acl.rule ~seq:20 Acl.Permit Prefix.any Prefix.any;
      ]
  in
  let cfg = Network.config_exn "r2" net in
  let cfg = Ast.update_acl acl cfg in
  let cfg =
    List.fold_left
      (fun cfg ifname ->
        Ast.update_interface
          { (Option.get (Ast.find_interface ifname cfg)) with Ast.acl_in = Some "ISO" }
          cfg)
      cfg [ "eth0"; "eth1" ]
  in
  let net = Network.with_config "r2" cfg net in
  let policies = Spec_miner.mine (Dataplane.compute net) in
  let isolated =
    List.filter (fun (p : Policy.t) -> p.intent = Policy.Isolated) policies
  in
  checki "one isolated" 1 (List.length isolated)

let test_miner_skips_broken () =
  let net = triangle () in
  let broken =
    Result.get_ok
      (Network.apply_changes
         [ Change.v "r2" (Change.Set_interface_enabled { iface = "eth2"; enabled = false }) ]
         net)
  in
  let policies = Spec_miner.mine (Dataplane.compute broken) in
  (* h2's subnet vanished (interface down): only h1<->h3 pairs remain. *)
  checki "two policies" 2 (List.length policies)

let test_miner_deterministic () =
  let net = triangle () in
  let dp = Dataplane.compute net in
  checkb "same result twice" true (Spec_miner.mine dp = Spec_miner.mine dp)

let test_miner_tcp_services () =
  let net = triangle () in
  let dp = Dataplane.compute net in
  let policies =
    Spec_miner.mine
      ~options:{ Spec_miner.mine_icmp = false; tcp_services = [ ("h2", 443) ] }
      dp
  in
  checki "two tcp policies" 2 (List.length policies);
  checkb "tcp flows" true
    (List.for_all (fun (p : Policy.t) -> p.flow.Flow.proto = Flow.Tcp) policies)

let test_miner_waypoint_upgrade () =
  (* A firewall on the path upgrades Reachable to Waypoint. *)
  let b = B.create () in
  B.router b "r";
  B.firewall b "fw";
  ignore (B.p2p ~area:0 b "r" "fw");
  B.routed_host ~area:0 b ~host_name:"ha" ~dev:"r" ~subnet:(pfx "10.71.0.0/24") ~host_octet:10;
  B.routed_host ~area:0 b ~host_name:"hb" ~dev:"fw" ~subnet:(pfx "10.72.0.0/24") ~host_octet:10;
  let net = B.build b in
  let policies = Spec_miner.mine (Dataplane.compute net) in
  checkb "has waypoint" true
    (List.exists
       (fun (p : Policy.t) -> match p.intent with Policy.Waypoint "fw" -> true | _ -> false)
       policies)

let suite =
  [
    Alcotest.test_case "trace delivery" `Quick test_trace_delivery;
    Alcotest.test_case "trace records switches" `Quick test_trace_l2_path_records_switch;
    Alcotest.test_case "trace same subnet" `Quick test_trace_same_subnet_l2;
    Alcotest.test_case "trace unknown source" `Quick test_trace_unknown_source;
    Alcotest.test_case "trace no route" `Quick test_trace_no_route;
    Alcotest.test_case "trace acl deny inbound" `Quick test_trace_acl_deny_inbound;
    Alcotest.test_case "trace dangling acl fails closed" `Quick
      test_trace_dangling_acl_fails_closed;
    Alcotest.test_case "trace reroutes around failure" `Quick test_trace_downed_interface;
    Alcotest.test_case "trace detects loops" `Quick test_trace_ttl_loop;
    Alcotest.test_case "policy check" `Quick test_policy_check;
    Alcotest.test_case "policy waypoint" `Quick test_policy_waypoint;
    Alcotest.test_case "policy check_all" `Quick test_policy_check_all;
    Alcotest.test_case "policy ids unique" `Quick test_policy_ids_unique;
    Alcotest.test_case "reach diff over union" `Quick test_reach_diff_union;
    Alcotest.test_case "reach impact of changes" `Quick test_reach_impact_of_changes;
    Alcotest.test_case "engine caches" `Quick test_engine_caches;
    Alcotest.test_case "engine map deterministic" `Quick test_engine_map_deterministic;
    Alcotest.test_case "engine matches sequential" `Quick
      test_engine_check_all_matches_sequential;
    Alcotest.test_case "engine map cutoff" `Quick test_engine_map_cutoff;
    Alcotest.test_case "engine pool reuse" `Quick test_engine_pool_reuse;
    Alcotest.test_case "engine map exception" `Quick test_engine_map_exception;
    Alcotest.test_case "engine concurrent traces" `Quick test_engine_concurrent_traces;
    Alcotest.test_case "engine incremental dataplane" `Quick
      test_engine_incremental_dataplane;
    Alcotest.test_case "engine persistent cache" `Quick test_engine_persistent_cache;
    Alcotest.test_case "network digest" `Quick test_network_digest;
    Alcotest.test_case "miner triangle" `Quick test_miner_triangle;
    Alcotest.test_case "miner detects isolation" `Quick test_miner_detects_isolation;
    Alcotest.test_case "miner skips broken pairs" `Quick test_miner_skips_broken;
    Alcotest.test_case "miner deterministic" `Quick test_miner_deterministic;
    Alcotest.test_case "miner tcp services" `Quick test_miner_tcp_services;
    Alcotest.test_case "miner waypoint upgrade" `Quick test_miner_waypoint_upgrade;
  ]
