(* Tests for Heimdall_sem and the semantic lint families it powers:
   the packet-set algebra (unit + QCheck laws), ACL compilation and
   exact dead-rule analysis (ACL004/ACL005), the network-wide pass
   (NET001-NET006), privilege over-grant detection (PRV004), engine
   determinism of the extended report, and the enforcer's semantic
   pre-check records. *)

open Heimdall_net
open Heimdall_config
open Heimdall_control
open Heimdall_privilege
open Heimdall_lint
open Heimdall_sem
module Experiments = Heimdall_scenarios.Experiments
module B = Heimdall_scenarios.Builder

(* The one verification context shared by this file's tests. *)
let engine = Heimdall_verify.Engine.create ~domains:1 ()

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string
let ia = Ifaddr.of_string
let ip = Ipv4.of_string
let pfx = Prefix.of_string

let with_code c diags = List.filter (fun (d : Diagnostic.t) -> d.code = c) diags

let one_diag label code diags =
  match with_code code diags with
  | [ d ] -> d
  | l -> Alcotest.failf "%s: expected exactly one %s, got %d" label code (List.length l)

let cube ?protos ?src_port ?dst_port src dst =
  Packet_set.cube ?protos ?src_port ?dst_port ~src:(pfx src) ~dst:(pfx dst) ()

(* ---------------- algebra: unit ---------------- *)

let test_algebra_basics () =
  checkb "empty is empty" true (Packet_set.is_empty Packet_set.empty);
  checkb "full not empty" false (Packet_set.is_empty Packet_set.full);
  checkb "complement full" true (Packet_set.is_empty (Packet_set.complement Packet_set.full));
  checkb "complement empty" true (Packet_set.equal Packet_set.full (Packet_set.complement Packet_set.empty));
  let a = cube ~protos:[ Flow.Tcp ] "10.0.0.0/8" "0.0.0.0/0" in
  checkb "subset of full" true (Packet_set.subset a Packet_set.full);
  checkb "inter with complement" true
    (Packet_set.is_empty (Packet_set.inter a (Packet_set.complement a)));
  checkb "sample member" true
    (match Packet_set.sample a with Some p -> Packet_set.mem a p | None -> false);
  checkb "empty sample" true (Packet_set.sample Packet_set.empty = None);
  (* Degenerate constructors. *)
  checkb "empty protos" true (Packet_set.is_empty (cube ~protos:[] "10.0.0.0/8" "0.0.0.0/0"));
  checkb "inverted ports" true
    (Packet_set.is_empty (cube ~dst_port:(443, 80) "0.0.0.0/0" "0.0.0.0/0"))

let test_algebra_union_of_halves () =
  (* The motivating ACL004 case: two /17s union to exactly the /16. *)
  let lo = cube "10.250.0.0/17" "0.0.0.0/0" in
  let hi = cube "10.250.128.0/17" "0.0.0.0/0" in
  let whole = cube "10.250.0.0/16" "0.0.0.0/0" in
  checkb "halves union to whole" true (Packet_set.equal (Packet_set.union lo hi) whole);
  checkb "halves disjoint" true (Packet_set.is_empty (Packet_set.inter lo hi));
  checkb "whole minus half is half" true
    (Packet_set.equal (Packet_set.diff whole lo) hi);
  (* Port intervals behave the same way. *)
  let p_lo = cube ~dst_port:(0, 79) "0.0.0.0/0" "0.0.0.0/0" in
  let p_hi = cube ~dst_port:(80, Packet_set.max_port) "0.0.0.0/0" "0.0.0.0/0" in
  checkb "port halves union to full" true
    (Packet_set.equal (Packet_set.union p_lo p_hi) Packet_set.full)

let test_algebra_diff_membership () =
  let a = cube ~protos:[ Flow.Tcp ] "10.0.0.0/8" "0.0.0.0/0" in
  let b = cube ~protos:[ Flow.Tcp ] ~dst_port:(80, 80) "10.0.0.0/8" "0.0.0.0/0" in
  let d = Packet_set.diff a b in
  let f port = Flow.make ~proto:Flow.Tcp ~src_port:40000 ~dst_port:port (ip "10.1.2.3") (ip "8.8.8.8") in
  checkb "port 80 removed" false (Packet_set.mem d (f 80));
  checkb "port 81 kept" true (Packet_set.mem d (f 81));
  checkb "port 79 kept" true (Packet_set.mem d (f 79));
  checkb "icmp never in tcp cube" false
    (Packet_set.mem a (Flow.icmp (ip "10.1.2.3") (ip "8.8.8.8")));
  checkb "to_string nonempty" true (String.length (Packet_set.to_string a) > 0);
  checks "to_string empty" "<empty>" (Packet_set.to_string Packet_set.empty)

(* ---------------- algebra: QCheck laws ---------------- *)

let prefix_pool =
  [|
    "0.0.0.0/0"; "10.0.0.0/8"; "10.0.0.0/9"; "10.128.0.0/9"; "10.250.0.0/16";
    "10.250.0.0/17"; "10.250.128.0/17"; "192.168.1.0/24"; "192.168.1.64/26";
  |]

let proto_pool = [| None; Some [ Flow.Tcp ]; Some [ Flow.Udp; Flow.Icmp ] |]
let port_pool = [| None; Some (80, 80); Some (0, 1023); Some (1024, Packet_set.max_port) |]

let set_of_seed seeds =
  List.fold_left
    (fun acc (a, b, c) ->
      Packet_set.union acc
        (Packet_set.cube
           ?protos:proto_pool.(c mod Array.length proto_pool)
           ?dst_port:port_pool.(b mod Array.length port_pool)
           ~src:(pfx prefix_pool.(a mod Array.length prefix_pool))
           ~dst:(pfx prefix_pool.(b mod Array.length prefix_pool))
           ()))
    Packet_set.empty seeds

let arb_set =
  QCheck.map set_of_seed
    (QCheck.list_of_size (QCheck.Gen.int_range 0 3)
       (QCheck.triple QCheck.small_nat QCheck.small_nat QCheck.small_nat))

let addr_pool =
  [|
    "10.0.0.0"; "10.127.255.255"; "10.128.0.0"; "10.250.0.1"; "10.250.128.0";
    "192.168.1.5"; "192.168.1.100"; "8.8.8.8";
  |]

let flow_of_seed (i, j, k) =
  let proto = [| Flow.Icmp; Flow.Tcp; Flow.Udp |].(k mod 3) in
  let dst_port = [| 0; 79; 80; 443; 1024; 65535 |].(k mod 6) in
  Flow.make ~proto ~src_port:40000 ~dst_port
    (ip addr_pool.(i mod Array.length addr_pool))
    (ip addr_pool.(j mod Array.length addr_pool))

let arb_flow =
  QCheck.map flow_of_seed (QCheck.triple QCheck.small_nat QCheck.small_nat QCheck.small_nat)

let prop_set_laws =
  QCheck.Test.make ~count:200 ~name:"algebra laws (idempotence, commutativity, diff)"
    (QCheck.pair arb_set arb_set) (fun (a, b) ->
      Packet_set.equal (Packet_set.union a a) a
      && Packet_set.equal (Packet_set.inter a a) a
      && Packet_set.equal (Packet_set.union a b) (Packet_set.union b a)
      && Packet_set.equal (Packet_set.inter a b) (Packet_set.inter b a)
      && Packet_set.is_empty (Packet_set.diff a a)
      && Packet_set.subset (Packet_set.diff a b) a
      && Packet_set.equal (Packet_set.union (Packet_set.diff a b) (Packet_set.inter a b)) a)

let prop_set_membership =
  QCheck.Test.make ~count:300 ~name:"membership distributes over inter/union/diff"
    (QCheck.triple arb_set arb_set arb_flow) (fun (a, b, f) ->
      Packet_set.mem (Packet_set.inter a b) f = (Packet_set.mem a f && Packet_set.mem b f)
      && Packet_set.mem (Packet_set.union a b) f = (Packet_set.mem a f || Packet_set.mem b f)
      && Packet_set.mem (Packet_set.diff a b) f
         = (Packet_set.mem a f && not (Packet_set.mem b f)))

(* ---------------- ACL compilation ---------------- *)

let rule_of_seed i (a, b, c, permit) =
  let protos = [| Acl.Any_proto; Acl.Proto Flow.Tcp; Acl.Proto Flow.Udp; Acl.Proto Flow.Icmp |] in
  let ports = [| Acl.Any_port; Acl.Eq 80; Acl.Range (0, 1023) |] in
  Acl.rule
    ~seq:((i + 1) * 10)
    ~proto:protos.(c mod 4)
    ~dst_port:ports.(c mod 3)
    (if permit then Acl.Permit else Acl.Deny)
    (pfx prefix_pool.(a mod Array.length prefix_pool))
    (pfx prefix_pool.(b mod Array.length prefix_pool))

let arb_acl =
  QCheck.map
    (fun seeds -> Acl.make "GEN" (List.mapi rule_of_seed seeds))
    (QCheck.list_of_size (QCheck.Gen.int_range 1 4)
       (QCheck.quad QCheck.small_nat QCheck.small_nat QCheck.small_nat QCheck.bool))

(* ~1k deterministic flows: every (src, dst, proto/port) combination of
   the pools above. *)
let flow_grid =
  List.concat_map
    (fun i ->
      List.concat_map
        (fun j -> List.map (fun k -> flow_of_seed (i, j, k)) [ 0; 1; 2; 3; 4; 5 ])
        (List.init (Array.length addr_pool) Fun.id))
    (List.init (Array.length addr_pool) Fun.id)

let prop_permit_set_agrees_with_eval =
  QCheck.Test.make ~count:60 ~name:"permit_set agrees with Acl.eval on the flow grid"
    arb_acl (fun acl ->
      let permits = Acl_sem.permit_set acl in
      List.for_all
        (fun f ->
          Packet_set.mem permits f = (fst (Acl.eval acl f) = Acl.Permit))
        flow_grid)

let test_acl_sem_equivalence_and_diff () =
  let whole = Acl.make "A" [ Acl.rule ~seq:10 Acl.Permit (pfx "10.0.0.0/8") Prefix.any ] in
  let halves =
    Acl.make "B"
      [
        Acl.rule ~seq:10 Acl.Permit (pfx "10.0.0.0/9") Prefix.any;
        Acl.rule ~seq:20 Acl.Permit (pfx "10.128.0.0/9") Prefix.any;
      ]
  in
  checkb "split equivalent" true (Acl_sem.equivalent whole halves);
  checkb "self diff empty" true (Acl_sem.diff_is_empty (Acl_sem.diff ~before:whole ~after:halves));
  checks "no change rendering" "no semantic change"
    (Acl_sem.diff_to_string (Acl_sem.diff ~before:whole ~after:whole));
  (* Narrowing the permit denies the top half. *)
  let narrowed = Acl.make "C" [ Acl.rule ~seq:10 Acl.Permit (pfx "10.0.0.0/9") Prefix.any ] in
  let d = Acl_sem.diff ~before:whole ~after:narrowed in
  checkb "nothing newly permitted" true (Packet_set.is_empty d.newly_permitted);
  checkb "top half newly denied" true
    (Packet_set.equal d.newly_denied (cube "10.128.0.0/9" "0.0.0.0/0"));
  (match Acl_sem.diff_witnesses d with
  | [ ("newly-denied", w) ] -> checkb "witness in the lost set" true (Packet_set.mem d.newly_denied w)
  | l -> Alcotest.failf "expected one newly-denied witness, got %d" (List.length l));
  (* The implicit deny means an empty ACL and an explicit deny-all agree. *)
  checkb "empty means deny" true
    (Packet_set.is_empty (Acl_sem.permit_set (Acl.empty "E")));
  checkb "deny_set complements" true
    (Packet_set.equal (Acl_sem.deny_set whole)
       (Packet_set.complement (Acl_sem.permit_set whole)))

let union_dead_acl action =
  Acl.make "UNION"
    [
      Acl.rule ~seq:1 ~proto:(Acl.Proto Flow.Tcp) Acl.Permit (pfx "10.250.0.0/17") Prefix.any;
      Acl.rule ~seq:2 ~proto:(Acl.Proto Flow.Tcp) Acl.Permit (pfx "10.250.128.0/17") Prefix.any;
      Acl.rule ~seq:3 ~proto:(Acl.Proto Flow.Tcp) action (pfx "10.250.0.0/16") Prefix.any;
    ]

let test_dead_rules_union_coverage () =
  (* Opposite action: an intent conflict no pairwise check can see. *)
  (match Acl_sem.dead_rules (union_dead_acl Acl.Deny) with
  | [ d ] ->
      checki "dead rule seq" 3 d.rule.Acl.seq;
      checkb "no single subsumer" true (d.subsumer = None);
      checkb "conflict" true d.conflict;
      checkb "both coverers" true (d.coverers = [ 1; 2 ]);
      checkb "witness decided oppositely" true
        (match d.witness with
        | Some w -> Packet_set.mem (cube ~protos:[ Flow.Tcp ] "10.250.0.0/16" "0.0.0.0/0") w
        | None -> false)
  | l -> Alcotest.failf "expected one dead rule, got %d" (List.length l));
  (* Same action: mere redundancy. *)
  (match Acl_sem.dead_rules (union_dead_acl Acl.Permit) with
  | [ d ] -> checkb "no conflict" true (not d.conflict)
  | l -> Alcotest.failf "expected one dead rule, got %d" (List.length l));
  (* Drop one half: the /16 decides the uncovered half — alive. *)
  let alive = Acl.make "ALIVE" (List.filter (fun (r : Acl.rule) -> r.seq <> 2) (union_dead_acl Acl.Deny).rules) in
  checki "alive" 0 (List.length (Acl_sem.dead_rules alive))

let test_acl004_and_acl005 () =
  let d = one_diag "union conflict" "ACL004" (Lint.check_acl ~device:"r1" (union_dead_acl Acl.Deny)) in
  checkb "error" true (d.severity = Diagnostic.Error);
  checkb "line is seq" true (d.line = Some 3);
  checkb "witness printed" true
    (let m = d.message in
     let has s =
       let rec go i =
         i + String.length s <= String.length m
         && (String.sub m i (String.length s) = s || go (i + 1))
       in
       go 0
     in
     has "witness" && has "rules 1, 2");
  let d5 = one_diag "union redundancy" "ACL005" (Lint.check_acl ~device:"r1" (union_dead_acl Acl.Permit)) in
  checkb "warning" true (d5.severity = Diagnostic.Warning);
  (* Pairwise shadowing still reports as ACL001/ACL002, never ACL004/005. *)
  let pairwise =
    Acl.make "P"
      [
        Acl.rule ~seq:10 Acl.Deny (pfx "10.0.0.0/8") Prefix.any;
        Acl.rule ~seq:20 Acl.Permit (pfx "10.1.0.0/16") Prefix.any;
      ]
  in
  let ds = Lint.check_acl ~device:"r1" pairwise in
  checki "acl001" 1 (List.length (with_code "ACL001" ds));
  checki "no acl004" 0 (List.length (with_code "ACL004" ds))

(* ---------------- NET family ---------------- *)

let two_routers ?area () =
  let b = B.create () in
  B.router b "r1";
  B.router b "r2";
  let subnet = B.p2p ?area b "r1" "r2" in
  (b, subnet)

let rewire_iface net node f =
  let cfg = Network.config_exn node net in
  let i = Option.get (Ast.find_interface "eth0" cfg) in
  Network.with_config node (Ast.update_interface (f i) cfg) net

let test_net001_one_sided_ospf () =
  (* OSPF announced on r1's end only. *)
  let b, subnet = two_routers () in
  B.ospf_network b "r1" subnet 0;
  let ds = Lint.check_network ~engine (B.build b) in
  let d = one_diag "one-sided" "NET001" ds in
  checkb "error" true (d.severity = Diagnostic.Error);
  checkb "silent end flagged" true (d.device = Some "r2");
  (* Both ends: clean.  Neither end: deliberately non-IGP, also clean. *)
  let both, _ = two_routers ~area:0 () in
  checki "both ends clean" 0 (List.length (with_code "NET001" (Lint.check_network ~engine (B.build both))));
  let neither, _ = two_routers () in
  checki "non-igp clean" 0 (List.length (with_code "NET001" (Lint.check_network ~engine (B.build neither))))

let test_net002_asymmetric_cost () =
  let b, _ = two_routers ~area:0 () in
  let net = B.build b in
  checki "symmetric clean" 0 (List.length (with_code "NET002" (Lint.check_network ~engine net)));
  let skewed = rewire_iface net "r2" (fun i -> { i with Ast.ospf_cost = Some 55 }) in
  let d = one_diag "asymmetric" "NET002" (Lint.check_network ~engine skewed) in
  checkb "warning" true (d.severity = Diagnostic.Warning)

let test_net003_overlapping_subnets () =
  let solo2 c1 c2 =
    Network.make
      (Topology.empty
      |> Topology.add_node c1.Ast.hostname Topology.Router
      |> Topology.add_node c2.Ast.hostname Topology.Router)
      [ (c1.Ast.hostname, c1); (c2.Ast.hostname, c2) ]
  in
  let r1 = Ast.make ~interfaces:[ Ast.interface ~addr:(ia "10.0.0.1/16") "eth0" ] "r1" in
  let r2 = Ast.make ~interfaces:[ Ast.interface ~addr:(ia "10.0.1.1/24") "eth0" ] "r2" in
  let d = one_diag "overlap" "NET003" (Lint.check_network ~engine (solo2 r1 r2)) in
  checkb "warning" true (d.severity = Diagnostic.Warning);
  (* Equal subnets (one shared segment) and disjoint subnets are clean. *)
  let r2_eq = Ast.make ~interfaces:[ Ast.interface ~addr:(ia "10.0.1.1/16") "eth0" ] "r2" in
  checki "equal clean" 0 (List.length (with_code "NET003" (Lint.check_network ~engine (solo2 r1 r2_eq))));
  let r2_far = Ast.make ~interfaces:[ Ast.interface ~addr:(ia "172.16.0.1/24") "eth0" ] "r2" in
  checki "disjoint clean" 0 (List.length (with_code "NET003" (Lint.check_network ~engine (solo2 r1 r2_far))))

let add_route net node prefix nh =
  let cfg = Network.config_exn node net in
  let r = { Ast.sr_prefix = prefix; sr_next_hop = nh; sr_distance = 1 } in
  Network.with_config node { cfg with Ast.static_routes = r :: cfg.Ast.static_routes } net

let test_net004_unowned_next_hop () =
  let b, _ = two_routers () in
  let net = B.build b in
  let r2_addr = Ifaddr.address (Option.get (Ast.interface_addr (Network.config_exn "r2" net) "eth0")) in
  (* .2 is r2: resolvable, clean — CFG006 quiet too (on-subnet). *)
  let good = add_route net "r1" (pfx "10.9.0.0/16") r2_addr in
  checki "owned clean" 0 (List.length (with_code "NET004" (Lint.check_network ~engine good)));
  (* .3 is on the /30 transit but nobody's: a blackhole CFG006 misses. *)
  let bad = add_route net "r1" (pfx "10.9.0.0/16") (Ipv4.succ r2_addr) in
  let ds = Lint.check_network ~engine bad in
  let d = one_diag "unowned" "NET004" ds in
  checkb "error" true (d.severity = Diagnostic.Error);
  checkb "device" true (d.device = Some "r1");
  checki "cfg006 quiet" 0 (List.length (with_code "CFG006" ds))

let test_net005_two_device_loop () =
  let b, _ = two_routers () in
  let net = B.build b in
  let addr node = Ifaddr.address (Option.get (Ast.interface_addr (Network.config_exn node net) "eth0")) in
  let looped =
    add_route (add_route net "r1" (pfx "10.9.0.0/16") (addr "r2")) "r2" (pfx "10.9.0.0/16") (addr "r1")
  in
  let ds = with_code "NET005" (Lint.check_network ~engine looped) in
  checki "both directions flagged" 2 (List.length ds);
  List.iter (fun (d : Diagnostic.t) -> checkb "error" true (d.severity = Diagnostic.Error)) ds;
  (* r2 forwarding a different prefix is not a loop. *)
  let chained =
    add_route (add_route net "r1" (pfx "10.9.0.0/16") (addr "r2")) "r2" (pfx "10.77.0.0/16") (addr "r1")
  in
  checki "disjoint prefixes clean" 0 (List.length (with_code "NET005" (Lint.check_network ~engine chained)))

let test_net006_switchport_mismatch () =
  let sw name vlans =
    Ast.make
      ~interfaces:[ Ast.interface ~switchport:(Ast.Trunk vlans) "eth0" ]
      ~vlans:[ (10, "users"); (20, "voice"); (30, "mgmt") ]
      name
  in
  let wire c1 c2 =
    Network.make
      (Topology.empty
      |> Topology.add_node c1.Ast.hostname Topology.Switch
      |> Topology.add_node c2.Ast.hostname Topology.Switch
      |> Topology.add_link
           { Topology.node = c1.Ast.hostname; iface = "eth0" }
           { Topology.node = c2.Ast.hostname; iface = "eth0" })
      [ (c1.Ast.hostname, c1); (c2.Ast.hostname, c2) ]
  in
  let d = one_diag "mismatch" "NET006" (Lint.check_network ~engine (wire (sw "sw1" [ 10; 20 ]) (sw "sw2" [ 10; 30 ]))) in
  checkb "error" true (d.severity = Diagnostic.Error);
  checki "agreeing trunks clean" 0
    (List.length (with_code "NET006" (Lint.check_network ~engine (wire (sw "sw1" [ 10; 20 ]) (sw "sw2" [ 20; 10 ])))))

(* ---------------- PRV004: over-grant ---------------- *)

let test_priv_sem_over_grants () =
  let b, _ = two_routers () in
  let net = B.build b in
  let spec = Dsl.parse "allow show.* on *;\nallow interface.up, interface.shutdown on r1, r2;\n" in
  let changes = [ Change.v "r1" (Change.Set_interface_enabled { iface = "eth0"; enabled = false }) ] in
  checkb "exercised" true (Priv_sem.exercised changes = [ ("interface.shutdown", "r1") ]);
  (match Priv_sem.over_grants ~network:net ~spec ~changes with
  | [ o ] ->
      checki "predicate index" 1 o.Priv_sem.index;
      checki "granted" 4 o.Priv_sem.granted;
      checki "used" 1 o.Priv_sem.used;
      checkb "excess sorted pairs" true
        (o.Priv_sem.excess
        = [ ("interface.shutdown", "r2"); ("interface.up", "r1"); ("interface.up", "r2") ])
  | l -> Alcotest.failf "expected one over-grant, got %d" (List.length l));
  (* The minimal spec for the changes has no excess, and a pure read-only
     grant is never flagged. *)
  checki "minimal spec clean" 0
    (List.length
       (Priv_sem.over_grants ~network:net ~spec:(Priv_sem.minimal_spec changes) ~changes));
  checkb "minimal spec allows the change" true
    (Privilege.allows (Priv_sem.minimal_spec changes)
       (Privilege.request "interface.shutdown" "r1"));
  checki "read-only clean" 0
    (List.length
       (Priv_sem.over_grants ~network:net ~spec:(Dsl.parse "allow show.*, diag.* on *;\n") ~changes))

let test_prv004_diagnostics () =
  let b, _ = two_routers () in
  let net = B.build b in
  let spec = Dsl.parse "allow interface.* on r1, r2;\n" in
  let changes = [ Change.v "r1" (Change.Set_interface_enabled { iface = "eth0"; enabled = false }) ] in
  let d = one_diag "over-grant" "PRV004" (Lint.check_privilege_usage ~label:"ticket:x" ~network:net ~spec ~changes ()) in
  checkb "warning" true (d.severity = Diagnostic.Warning);
  checkb "label" true (d.device = Some "ticket:x");
  checkb "1-based statement line" true (d.line = Some 1);
  checki "minimal clean" 0
    (List.length (Lint.check_privilege_usage ~network:net ~spec:(Priv_sem.minimal_spec changes) ~changes ()))

(* ---------------- determinism + gating ---------------- *)

let seeded_enterprise () =
  let sc = Option.get (Experiments.scenario_of_name "enterprise") in
  let cfg = Network.config_exn "r8" sc.Experiments.net in
  let acl = Option.get (Ast.find_acl "SRV_PROT" cfg) in
  let acl =
    acl
    |> Acl.add_rule (Acl.rule ~seq:1 ~proto:(Acl.Proto Flow.Tcp) Acl.Permit (pfx "10.250.0.0/17") Prefix.any)
    |> Acl.add_rule (Acl.rule ~seq:2 ~proto:(Acl.Proto Flow.Tcp) Acl.Permit (pfx "10.250.128.0/17") Prefix.any)
    |> Acl.add_rule (Acl.rule ~seq:3 ~proto:(Acl.Proto Flow.Tcp) Acl.Deny (pfx "10.250.0.0/16") Prefix.any)
  in
  Network.with_config "r8" (Ast.update_acl acl cfg) sc.Experiments.net

let test_semantic_report_deterministic () =
  let net = seeded_enterprise () in
  let sequential = Lint.check_network ~engine net in
  checki "seeded acl004 present" 1 (List.length (with_code "ACL004" sequential));
  let engine = Heimdall_verify.Engine.create ~domains:3 () in
  let parallel = Lint.check_network ~engine net in
  checkb "findings identical" true (List.equal Diagnostic.equal sequential parallel);
  checks "json identical"
    (Heimdall_json.Json.to_string (Lint.to_json sequential))
    (Heimdall_json.Json.to_string (Lint.to_json parallel))

let test_apply_severity_gate () =
  let e = Diagnostic.v ~code:"NET004" Diagnostic.Error "e" in
  let w = Diagnostic.v ~code:"PRV004" Diagnostic.Warning "w" in
  let kept, fail = Lint.apply_severity ~min_severity:Diagnostic.Info [ e; w ] in
  checki "all kept" 2 (List.length kept);
  checkb "fails on error" true fail;
  let kept, fail = Lint.apply_severity ~min_severity:Diagnostic.Error [ w ] in
  checki "warning filtered" 0 (List.length kept);
  checkb "filtered report passes" false fail

(* ---------------- enforcer semantic pre-check ---------------- *)

let test_enforcer_sem_records () =
  let sc = Option.get (Experiments.scenario_of_name "enterprise") in
  let net = sc.Experiments.net and policies = sc.Experiments.policies in
  let em = Heimdall_twin.Twin.build ~production:net ~endpoints:[ "h1"; "h8" ] () in
  let session = Heimdall_twin.Twin.open_session ~privilege:Privilege.allow_all em in
  ignore
    (Heimdall_twin.Session.exec_many session
       [ "connect r8"; "configure access-list SRV_PROT 5 permit ip 10.1.10.0/24 10.3.10.0/24" ]);
  let outcome =
    Heimdall_enforcer.Enforcer.process ~engine ~production:net ~policies
      ~privilege:Privilege.allow_all ~session ()
  in
  (* The edit opened traffic: exactly one ACL diff, nothing newly denied. *)
  (match outcome.Heimdall_enforcer.Enforcer.acl_diffs with
  | [ (node, acl, d) ] ->
      checks "diff node" "r8" node;
      checks "diff acl" "SRV_PROT" acl;
      checkb "newly permitted" false (Packet_set.is_empty d.Acl_sem.newly_permitted);
      checkb "nothing newly denied" true (Packet_set.is_empty d.Acl_sem.newly_denied)
  | l -> Alcotest.failf "expected one ACL diff, got %d" (List.length l));
  (* allow_all vastly over-grants relative to one ACL edit. *)
  checkb "over-grant finding" true
    (List.exists
       (fun (d : Diagnostic.t) -> d.code = "PRV004")
       outcome.Heimdall_enforcer.Enforcer.sem_findings);
  let records = Heimdall_enforcer.Audit.records outcome.Heimdall_enforcer.Enforcer.audit in
  checkb "sem.diff recorded" true
    (List.exists (fun (r : Heimdall_enforcer.Audit.record) -> r.action = "sem.diff") records);
  checkb "sem.overgrant recorded" true
    (List.exists (fun (r : Heimdall_enforcer.Audit.record) -> r.action = "sem.overgrant") records);
  checkb "audit chain verifies" true
    (Heimdall_enforcer.Audit.verify outcome.Heimdall_enforcer.Enforcer.audit = Ok ())

let test_enforcer_clean_session_no_sem_records () =
  let sc = Option.get (Experiments.scenario_of_name "enterprise") in
  let net = sc.Experiments.net and policies = sc.Experiments.policies in
  let em = Heimdall_twin.Twin.build ~production:net ~endpoints:[ "h1"; "h8" ] () in
  let session =
    Heimdall_twin.Twin.open_session ~privilege:(Heimdall_privilege.Dsl.parse "allow show.* on *;\n") em
  in
  ignore (Heimdall_twin.Session.exec_many session [ "connect r8"; "show interfaces" ]);
  let outcome =
    Heimdall_enforcer.Enforcer.process ~engine ~production:net ~policies
      ~privilege:(Heimdall_privilege.Dsl.parse "allow show.* on *;\n") ~session ()
  in
  checkb "no acl diffs" true (outcome.Heimdall_enforcer.Enforcer.acl_diffs = []);
  checkb "no sem findings" true (outcome.Heimdall_enforcer.Enforcer.sem_findings = []);
  checkb "no sem audit records" true
    (List.for_all
       (fun (r : Heimdall_enforcer.Audit.record) ->
         r.action <> "sem.diff" && r.action <> "sem.overgrant")
       (Heimdall_enforcer.Audit.records outcome.Heimdall_enforcer.Enforcer.audit))

let suite =
  [
    Alcotest.test_case "algebra basics" `Quick test_algebra_basics;
    Alcotest.test_case "union of halves" `Quick test_algebra_union_of_halves;
    Alcotest.test_case "diff membership" `Quick test_algebra_diff_membership;
    QCheck_alcotest.to_alcotest prop_set_laws;
    QCheck_alcotest.to_alcotest prop_set_membership;
    QCheck_alcotest.to_alcotest prop_permit_set_agrees_with_eval;
    Alcotest.test_case "acl equivalence and diff" `Quick test_acl_sem_equivalence_and_diff;
    Alcotest.test_case "dead rules union coverage" `Quick test_dead_rules_union_coverage;
    Alcotest.test_case "ACL004 and ACL005" `Quick test_acl004_and_acl005;
    Alcotest.test_case "NET001 one-sided ospf" `Quick test_net001_one_sided_ospf;
    Alcotest.test_case "NET002 asymmetric cost" `Quick test_net002_asymmetric_cost;
    Alcotest.test_case "NET003 overlapping subnets" `Quick test_net003_overlapping_subnets;
    Alcotest.test_case "NET004 unowned next hop" `Quick test_net004_unowned_next_hop;
    Alcotest.test_case "NET005 two-device loop" `Quick test_net005_two_device_loop;
    Alcotest.test_case "NET006 switchport mismatch" `Quick test_net006_switchport_mismatch;
    Alcotest.test_case "over-grant analysis" `Quick test_priv_sem_over_grants;
    Alcotest.test_case "PRV004 diagnostics" `Quick test_prv004_diagnostics;
    Alcotest.test_case "semantic report deterministic" `Quick test_semantic_report_deterministic;
    Alcotest.test_case "apply_severity gate" `Quick test_apply_severity_gate;
    Alcotest.test_case "enforcer sem records" `Quick test_enforcer_sem_records;
    Alcotest.test_case "clean session no sem records" `Quick
      test_enforcer_clean_session_no_sem_records;
  ]
